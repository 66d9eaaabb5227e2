#include "workloads/trace.hh"

#include <charconv>
#include <istream>
#include <ostream>
#include <sstream>

#include "sim/logging.hh"
#include "workloads/workload.hh"

namespace barre
{

namespace
{

/** All of @p tok as a number in @p base up to @p max, else fatal. */
std::uint64_t
parseField(std::string_view tok, int base, std::uint64_t max,
           const char *what, std::size_t lineno)
{
    const std::string_view digits =
        base == 16 && tok.rfind("0x", 0) == 0 ? tok.substr(2) : tok;
    std::uint64_t v = 0;
    const char *end = digits.data() + digits.size();
    const auto [stop, ec] = std::from_chars(digits.data(), end, v, base);
    if (ec != std::errc{} || stop != end || v > max) {
        barre_fatal("trace line %zu: bad %s '%s'", lineno, what,
                    std::string(tok).c_str());
    }
    return v;
}

} // namespace

Trace
readTrace(std::istream &is)
{
    Trace trace;
    std::vector<AccessDesc> *current = nullptr;
    std::string line;
    std::size_t lineno = 0;
    while (std::getline(is, line)) {
        ++lineno;
        // Strip comments and whitespace-only lines.
        auto hash = line.find('#');
        if (hash != std::string::npos)
            line.erase(hash);
        std::istringstream ls(line);
        std::string tok, arg, extra;
        if (!(ls >> tok))
            continue;
        if (ls >> arg >> extra)
            barre_fatal("trace line %zu: trailing '%s'", lineno,
                        extra.c_str());
        if (tok == "cta") {
            // CTAs are dense: reopen one or start the next.
            const std::uint64_t idx = parseField(
                arg, 10, trace.ctas.size(), "cta index", lineno);
            if (idx == trace.ctas.size())
                trace.ctas.emplace_back();
            current = &trace.ctas[idx];
            continue;
        }
        if (!current)
            barre_fatal("trace line %zu: access before any 'cta'",
                        lineno);
        AccessDesc a;
        a.vaddr = parseField(tok, 16, ~Addr{0}, "vaddr", lineno);
        a.pid = arg.empty() ? 1
                            : static_cast<ProcessId>(parseField(
                                  arg, 10, ~ProcessId{0}, "pid", lineno));
        current->push_back(a);
    }
    return trace;
}

void
writeTrace(std::ostream &os, const Trace &trace)
{
    os << "# barre-chord access trace: " << trace.ctas.size()
       << " CTAs, " << trace.totalAccesses() << " accesses\n";
    for (std::size_t t = 0; t < trace.ctas.size(); ++t) {
        os << "cta " << t << "\n";
        for (const auto &a : trace.ctas[t]) {
            os << std::hex << a.vaddr << std::dec;
            if (a.pid != 1)
                os << " " << a.pid;
            os << "\n";
        }
    }
}

Trace
recordTrace(const AppParams &app, const std::vector<DataAlloc> &allocs,
            PageSize page_size)
{
    Trace trace;
    trace.ctas.reserve(app.ctas);
    for (std::uint32_t t = 0; t < app.ctas; ++t)
        trace.ctas.push_back(generateCta(app, allocs, t, page_size));
    return trace;
}

} // namespace barre
