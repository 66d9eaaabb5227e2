/**
 * @file
 * Compare two perf-trajectory JSON files (BENCH_runner.json and
 * friends) and flag regressions:
 *
 *   perf_diff [--threshold PCT] [--ignore-env] old.json new.json
 *
 * The files are the JSON objects our self-benchmarks write; members
 * are flattened to dotted keys ("pdes_speedup.partitioned_wall_s") and
 * classified by name. Array elements flatten under a stable segment:
 * the element's "name" member when it has one ("configs.fbarre..."),
 * else its "scheduler" member plus thread count ("runs.epoch@4..."),
 * else its index — so reordering a config list does not shuffle every
 * comparison. Key classes:
 *
 *   - throughput/speedup metrics (events_per_s, *_eps, speedup, gain):
 *     higher is better;
 *   - wall-clock metrics (*_wall_s, *_s): lower is better;
 *   - "identical_results" booleans: must be true in the new file;
 *   - everything else (cores, jobs, cells, scales): informational.
 *
 * Noise awareness: wall times on shared runners jitter, so a metric
 * only counts as a regression when it is worse by more than
 * --threshold percent (default 20). And two runs are only comparable
 * at all when they came from the same-shaped host — if any host_cores
 * or jobs member differs between the files, regressions (and missing
 * members, whose keys legitimately change when a thread sweep
 * shrinks with the host) are reported but downgraded to informational
 * (exit 0) unless --ignore-env forces them, so "CI got smaller" never
 * masquerades as "code got slower". Correctness flags
 * (identical_results) always gate.
 *
 * Schema gate: the writers stamp a top-level "schema_version" member.
 * Two files are only diffed when their schema versions match (a file
 * without the member counts as version 0); otherwise the comparison is
 * refused with exit 2 — regenerate the baseline rather than comparing
 * metrics whose meaning changed between schemas.
 *
 * Exit status: 0 = no regressions, 1 = regression (or a bench member
 * missing from the new file, or identical_results=false), 2 = usage,
 * parse, or schema-version error.
 */

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

namespace
{

struct Parser
{
    const std::string &s;
    std::size_t i = 0;
    bool ok = true;
    /** String members of the object currently being parsed, keyed by
     *  their flattened name. Used to label array elements. */
    std::map<std::string, std::string> strings;

    explicit Parser(const std::string &text) : s(text) {}

    void
    skipWs()
    {
        while (i < s.size() && std::isspace(static_cast<unsigned char>(
                                   s[i])))
            ++i;
    }

    bool
    expect(char c)
    {
        skipWs();
        if (i < s.size() && s[i] == c) {
            ++i;
            return true;
        }
        ok = false;
        return false;
    }

    std::string
    parseString()
    {
        if (!expect('"'))
            return "";
        std::string out;
        while (i < s.size() && s[i] != '"') {
            if (s[i] == '\\' && i + 1 < s.size())
                ++i; // our writers never escape, but stay safe
            out.push_back(s[i++]);
        }
        if (i < s.size())
            ++i; // closing quote
        else
            ok = false;
        return out;
    }

    /** Parse any JSON value at the cursor, flattening numeric/bool
     *  leaves into @p out under @p prefix. String leaves land in
     *  `strings` (they label array elements; they are not compared). */
    void
    parseValue(const std::string &prefix,
               std::map<std::string, double> &out)
    {
        skipWs();
        if (i >= s.size()) {
            ok = false;
            return;
        }
        if (s[i] == '{') {
            parseObject(prefix, out);
        } else if (s[i] == '[') {
            parseArray(prefix, out);
        } else if (s[i] == '"') {
            strings[prefix] = parseString();
        } else if (s.compare(i, 4, "true") == 0) {
            out[prefix] = 1.0;
            i += 4;
        } else if (s.compare(i, 5, "false") == 0) {
            out[prefix] = 0.0;
            i += 5;
        } else if (s.compare(i, 4, "null") == 0) {
            i += 4;
        } else {
            char *end = nullptr;
            const double v = std::strtod(s.c_str() + i, &end);
            if (end == s.c_str() + i) {
                ok = false;
                return;
            }
            out[prefix] = v;
            i = static_cast<std::size_t>(end - s.c_str());
        }
    }

    /** Parse an object, flattening numeric/bool members into @p out
     *  with dot-joined keys under @p prefix. */
    void
    parseObject(const std::string &prefix,
                std::map<std::string, double> &out)
    {
        if (!expect('{'))
            return;
        skipWs();
        if (i < s.size() && s[i] == '}') {
            ++i;
            return;
        }
        while (ok) {
            const std::string key = parseString();
            if (!expect(':'))
                return;
            const std::string full =
                prefix.empty() ? key : prefix + "." + key;
            parseValue(full, out);
            if (!ok)
                return;
            skipWs();
            if (i < s.size() && s[i] == ',') {
                ++i;
                continue;
            }
            expect('}');
            return;
        }
    }

    /** Parse an array, flattening each element under a stable key
     *  segment: the element's "name" member when present, else its
     *  "scheduler" member plus thread count, else the index. */
    void
    parseArray(const std::string &prefix,
               std::map<std::string, double> &out)
    {
        if (!expect('['))
            return;
        skipWs();
        if (i < s.size() && s[i] == ']') {
            ++i;
            return;
        }
        std::size_t idx = 0;
        while (ok) {
            // Parse the element into scratch maps so its key segment
            // can be derived from its own members before merging.
            std::map<std::string, double> elem;
            std::map<std::string, std::string> outer_strings;
            outer_strings.swap(strings);
            parseValue("", elem);
            std::string seg;
            if (auto it = strings.find("name"); it != strings.end()) {
                seg = it->second;
            } else if (auto sc = strings.find("scheduler");
                       sc != strings.end()) {
                seg = sc->second;
                if (auto th = elem.find("threads"); th != elem.end())
                    seg += "@" + std::to_string(
                                     static_cast<long>(th->second));
            }
            strings.swap(outer_strings);
            if (!ok)
                return;
            if (seg.empty())
                seg = std::to_string(idx);
            for (const auto &[k, v] : elem) {
                out[prefix + "." + seg + (k.empty() ? "" : "." + k)] =
                    v;
            }
            ++idx;
            skipWs();
            if (i < s.size() && s[i] == ',') {
                ++i;
                continue;
            }
            expect(']');
            return;
        }
    }
};

bool
readFile(const char *path, std::string &out)
{
    std::FILE *f = std::fopen(path, "r");
    if (!f)
        return false;
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, f)) > 0)
        out.append(buf, n);
    std::fclose(f);
    return true;
}

bool
contains(const std::string &key, const char *needle)
{
    return key.find(needle) != std::string::npos;
}

bool
endsWith(const std::string &key, const char *suffix)
{
    const std::size_t n = std::strlen(suffix);
    return key.size() >= n &&
           key.compare(key.size() - n, n, suffix) == 0;
}

enum class Kind
{
    higher_better,
    lower_better,
    must_be_true,
    env,
    info,
};

Kind
classify(const std::string &key)
{
    if (endsWith(key, "identical_results"))
        return Kind::must_be_true;
    if (endsWith(key, "host_cores") || endsWith(key, "jobs") ||
        endsWith(key, "threads") || endsWith(key, "domains"))
        return Kind::env;
    // Rates before the generic seconds suffix: "events_per_s" ends in
    // "_s" too but is a throughput, not a duration.
    if (contains(key, "events_per_s") || endsWith(key, "_eps") ||
        contains(key, "speedup") || contains(key, "gain"))
        return Kind::higher_better;
    if (endsWith(key, "_s") || contains(key, "wall"))
        return Kind::lower_better;
    return Kind::info;
}

} // namespace

int
main(int argc, char **argv)
{
    double threshold = 20.0;
    bool ignore_env = false;
    std::vector<const char *> files;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--threshold") == 0 && i + 1 < argc) {
            threshold = std::atof(argv[++i]);
        } else if (std::strcmp(argv[i], "--ignore-env") == 0) {
            ignore_env = true;
        } else if (argv[i][0] == '-') {
            std::fprintf(stderr, "unknown option %s\n", argv[i]);
            return 2;
        } else {
            files.push_back(argv[i]);
        }
    }
    if (files.size() != 2) {
        std::fprintf(stderr,
                     "usage: perf_diff [--threshold PCT] "
                     "[--ignore-env] old.json new.json\n");
        return 2;
    }

    std::string old_text, new_text;
    if (!readFile(files[0], old_text)) {
        std::fprintf(stderr, "cannot read %s\n", files[0]);
        return 2;
    }
    if (!readFile(files[1], new_text)) {
        std::fprintf(stderr, "cannot read %s\n", files[1]);
        return 2;
    }

    std::map<std::string, double> old_vals, new_vals;
    Parser po(old_text);
    po.parseObject("", old_vals);
    Parser pn(new_text);
    pn.parseObject("", new_vals);
    if (!po.ok || !pn.ok || old_vals.empty() || new_vals.empty()) {
        std::fprintf(stderr, "malformed JSON input\n");
        return 2;
    }

    // Schema gate: files from different bench-schema generations are
    // not comparable — metric names/meanings may have changed.
    const auto schemaOf = [](const std::map<std::string, double> &vals) {
        const auto it = vals.find("schema_version");
        return it == vals.end() ? 0.0 : it->second;
    };
    const double old_schema = schemaOf(old_vals);
    const double new_schema = schemaOf(new_vals);
    if (old_schema != new_schema) {
        std::fprintf(stderr,
                     "schema_version mismatch: %s has %g, %s has %g — "
                     "refusing to compare across bench schemas; "
                     "regenerate the baseline with the current "
                     "benchmarks\n",
                     files[0], old_schema, files[1], new_schema);
        return 2;
    }

    // Environment guard: different host shapes are not comparable.
    bool env_mismatch = false;
    for (const auto &[key, ov] : old_vals) {
        if (classify(key) != Kind::env)
            continue;
        auto it = new_vals.find(key);
        if (it != new_vals.end() && it->second != ov) {
            std::printf("env      %-44s %g -> %g\n", key.c_str(), ov,
                        it->second);
            env_mismatch = true;
        }
    }

    int regressions = 0;
    int broken = 0;
    int missing = 0;
    for (const auto &[key, ov] : old_vals) {
        const Kind kind = classify(key);
        auto it = new_vals.find(key);
        if (it == new_vals.end()) {
            if (kind == Kind::higher_better ||
                kind == Kind::lower_better ||
                kind == Kind::must_be_true) {
                std::printf("MISSING  %s\n", key.c_str());
                ++missing;
            }
            continue;
        }
        const double nv = it->second;
        switch (kind) {
          case Kind::must_be_true:
            if (nv == 0.0) {
                std::printf("BROKEN   %s is false\n", key.c_str());
                ++broken;
            }
            break;
          case Kind::higher_better:
          case Kind::lower_better: {
            if (ov == 0.0)
                break; // no baseline signal
            const double delta_pct = 100.0 * (nv - ov) / ov;
            const bool worse = kind == Kind::higher_better
                                   ? delta_pct < -threshold
                                   : delta_pct > threshold;
            const bool better = kind == Kind::higher_better
                                    ? delta_pct > threshold
                                    : delta_pct < -threshold;
            const char *verdict = worse      ? "REGRESS"
                                  : better   ? "improve"
                                             : "ok";
            std::printf("%-8s %-44s %g -> %g (%+.1f%%)\n", verdict,
                        key.c_str(), ov, nv, delta_pct);
            if (worse)
                ++regressions;
            break;
          }
          case Kind::env:
          case Kind::info:
            break;
        }
    }

    // identical_results appearing only in the new file still gates.
    for (const auto &[key, nv] : new_vals) {
        if (classify(key) == Kind::must_be_true && nv == 0.0 &&
            old_vals.find(key) == old_vals.end()) {
            std::printf("BROKEN   %s is false\n", key.c_str());
            ++broken;
        }
    }

    // Correctness gates are immune to the noise/environment outs.
    if (broken > 0) {
        std::printf("%d correctness flag(s) broken\n", broken);
        return 1;
    }
    if (missing > 0) {
        // Thread-sweep members come and go with the host shape (a
        // 2-core runner records no @4 cells), so a disappearance only
        // gates when the environment matches.
        if (env_mismatch && !ignore_env) {
            std::printf("%d member(s) missing, but the host shape "
                        "changed — not comparable (use --ignore-env "
                        "to enforce)\n",
                        missing);
        } else {
            std::printf("%d benchmark member(s) disappeared\n",
                        missing);
            return 1;
        }
    }
    if (regressions > 0 && env_mismatch && !ignore_env) {
        std::printf("%d regression(s), but the host shape changed — "
                    "not comparable (use --ignore-env to enforce)\n",
                    regressions);
        return 0;
    }
    if (regressions > 0) {
        std::printf("%d regression(s) beyond %.0f%%\n", regressions,
                    threshold);
        return 1;
    }
    std::printf("no regressions beyond %.0f%%\n", threshold);
    return 0;
}
