#include "sim/logging.hh"

#include <cstdarg>
#include <mutex>
#include <stdexcept>
#include <utility>

namespace barre
{

namespace
{

/**
 * Serializes whole log lines. Simulations may run concurrently (see
 * harness/pool.hh); single fprintf calls are atomic enough on POSIX,
 * but this keeps the guarantee explicit and portable.
 */
std::mutex log_mutex;

/**
 * Active capture for this thread, or null. Owned by the begin/end
 * pair in runManyJobs' cell wrapper; plain pointer so the hot
 * warn/inform path is a single thread-local load.
 */
thread_local LogBlock log_buffer;
thread_local bool log_buffer_active = false;

} // namespace

void
beginLogBuffer()
{
    if (log_buffer_active)
        panicImpl(__FILE__, __LINE__,
                  "beginLogBuffer: capture already active on this "
                  "thread (no nesting)");
    log_buffer.lines.clear();
    log_buffer_active = true;
}

LogBlock
endLogBuffer()
{
    if (!log_buffer_active)
        panicImpl(__FILE__, __LINE__,
                  "endLogBuffer without a matching beginLogBuffer");
    log_buffer_active = false;
    LogBlock out = std::move(log_buffer);
    log_buffer.lines.clear();
    return out;
}

bool
logBufferActive()
{
    return log_buffer_active;
}

void
replayLog(const LogBlock &block)
{
    if (block.empty())
        return;
    std::lock_guard<std::mutex> lk(log_mutex);
    for (const auto &line : block.lines)
        std::fprintf(line.to_stderr ? stderr : stdout, "%s\n",
                     line.text.c_str());
    std::fflush(stdout);
}

std::string
csprintf(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    va_list args_copy;
    va_copy(args_copy, args);
    int len = std::vsnprintf(nullptr, 0, fmt, args);
    va_end(args);
    std::string out;
    if (len > 0) {
        out.resize(static_cast<std::size_t>(len));
        std::vsnprintf(out.data(), out.size() + 1, fmt, args_copy);
    }
    va_end(args_copy);
    return out;
}

void
panicImpl(const char *file, int line, const std::string &msg)
{
    {
        std::lock_guard<std::mutex> lk(log_mutex);
        std::fprintf(stderr, "panic: %s (%s:%d)\n", msg.c_str(), file,
                     line);
    }
    // Throwing (rather than abort()) lets unit tests assert on panics.
    throw std::logic_error("panic: " + msg);
}

void
fatalImpl(const char *file, int line, const std::string &msg)
{
    {
        std::lock_guard<std::mutex> lk(log_mutex);
        std::fprintf(stderr, "fatal: %s (%s:%d)\n", msg.c_str(), file,
                     line);
    }
    throw FatalError("fatal: " + msg);
}

int
runMain(int (*body)(int, char **), int argc, char **argv)
{
    try {
        return body(argc, argv);
    } catch (const FatalError &) {
        return 1;
    }
}

void
warnImpl(const std::string &msg)
{
    if (log_buffer_active) {
        log_buffer.lines.push_back({true, "warn: " + msg});
        return;
    }
    std::lock_guard<std::mutex> lk(log_mutex);
    std::fprintf(stderr, "warn: %s\n", msg.c_str());
}

void
informImpl(const std::string &msg)
{
    if (log_buffer_active) {
        log_buffer.lines.push_back({false, "info: " + msg});
        return;
    }
    std::lock_guard<std::mutex> lk(log_mutex);
    std::fprintf(stdout, "info: %s\n", msg.c_str());
}

} // namespace barre
