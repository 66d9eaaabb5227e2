#include "spans.hh"

#include <atomic>
#include <cstdio>
#include <fstream>

namespace perfbench
{

namespace
{

/** Open scopes on this thread, innermost last (implicit parents). */
thread_local std::vector<std::int64_t> open_scopes;

/** Small dense thread ids for the trace viewer's rows. */
std::atomic<std::uint32_t> next_thread{1};
thread_local const std::uint32_t this_thread = next_thread++;

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out;
}

} // namespace

SpanRecorder::SpanRecorder(bool recording)
    : recording_(recording), origin_(Clock::now())
{}

double
SpanRecorder::since(Clock::time_point t) const
{
    return std::chrono::duration<double>(t - origin_).count();
}

std::int64_t
SpanRecorder::newCell()
{
    std::lock_guard<std::mutex> lk(mu_);
    return next_cell_++;
}

SpanRecorder::Scope::Scope(SpanRecorder &rec, std::string layer,
                           std::string name, std::int64_t cell,
                           std::int64_t parent, std::string label)
    : rec_(rec), layer_(std::move(layer)), name_(std::move(name)),
      label_(std::move(label)), cell_(cell), parent_(parent), id_(-1)
{
    if (rec_.recording_) {
        {
            std::lock_guard<std::mutex> lk(rec_.mu_);
            id_ = rec_.next_id_++;
        }
        if (parent_ < 0 && !open_scopes.empty())
            parent_ = open_scopes.back();
        open_scopes.push_back(id_);
    }
    start_ = Clock::now();
}

double
SpanRecorder::Scope::stop()
{
    if (elapsed_ >= 0)
        return elapsed_;
    const Clock::time_point end = Clock::now();
    elapsed_ = std::chrono::duration<double>(end - start_).count();
    if (!rec_.recording_)
        return elapsed_;

    // Scopes nest on one thread, so this one is the innermost open.
    if (!open_scopes.empty() && open_scopes.back() == id_)
        open_scopes.pop_back();
    Span s;
    s.name = std::move(name_);
    s.layer = std::move(layer_);
    s.label = std::move(label_);
    s.start_s = rec_.since(start_);
    s.end_s = rec_.since(end);
    s.id = id_;
    s.parent = parent_;
    s.cell = cell_;
    s.thread = this_thread;
    std::lock_guard<std::mutex> lk(rec_.mu_);
    rec_.spans_.push_back(std::move(s));
    return elapsed_;
}

std::vector<Span>
SpanRecorder::spans() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return spans_;
}

double
SpanRecorder::sum(const std::string &name, std::int64_t first_cell,
                  std::int64_t last_cell) const
{
    std::lock_guard<std::mutex> lk(mu_);
    double total = 0;
    for (const Span &s : spans_)
        if (s.name == name && s.cell >= first_cell && s.cell < last_cell)
            total += s.duration();
    return total;
}

bool
SpanRecorder::writeChromeTrace(const std::string &path) const
{
    std::ofstream os(path);
    if (!os)
        return false;
    os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    bool first = true;
    for (const Span &s : spans()) {
        char times[96];
        std::snprintf(times, sizeof(times), "\"ts\":%.3f,\"dur\":%.3f",
                      s.start_s * 1e6, s.duration() * 1e6);
        os << (first ? "\n" : ",\n") << "{\"name\":\""
           << jsonEscape(s.name) << "\",\"cat\":\"" << jsonEscape(s.layer)
           << "\",\"ph\":\"X\"," << times << ",\"pid\":1,\"tid\":"
           << s.thread << ",\"args\":{\"id\":" << s.id
           << ",\"parent\":" << s.parent << ",\"cell\":" << s.cell
           << ",\"label\":\"" << jsonEscape(s.label) << "\"}}";
        first = false;
    }
    os << "\n]}\n";
    return static_cast<bool>(os);
}

} // namespace perfbench
