/**
 * @file
 * Error and status reporting, following the gem5 panic/fatal/warn split.
 *
 * panic()  - an internal simulator invariant was violated (a bug in us).
 * fatal()  - the user configured something impossible; exit cleanly.
 * warn()   - behaviour may be approximated; simulation continues.
 * inform() - plain status output.
 */

#pragma once

#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

namespace barre
{

/** Printf-style formatting into a std::string. */
std::string csprintf(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

[[noreturn]] void panicImpl(const char *file, int line,
                            const std::string &msg);
[[noreturn]] void fatalImpl(const char *file, int line,
                            const std::string &msg);
void warnImpl(const std::string &msg);
void informImpl(const std::string &msg);

/** What fatal() throws, after printing its message to stderr. */
struct FatalError : std::runtime_error
{
    using std::runtime_error::runtime_error;
};

/**
 * Run a program's main body: a fatal() escaping @p body becomes exit
 * code 1 (the message is already on stderr) instead of
 * std::terminate's SIGABRT. Every CLI main is `return runMain(body,
 * argc, argv);`.
 */
int runMain(int (*body)(int, char **), int argc, char **argv);

/**
 * A deferred block of log lines captured from one simulation cell.
 *
 * Under the parallel runner, line-atomic output from concurrent cells
 * still interleaves across cells. runManyJobs() instead buffers each
 * cell's warn()/inform() traffic into a LogBlock (beginLogBuffer /
 * endLogBuffer bracket the cell on its worker thread) and replays the
 * blocks in cell-index order once the batch finishes, so stderr/stdout
 * read exactly like the serial run. panic()/fatal() bypass the buffer:
 * their message must be visible even if the block is never replayed.
 */
struct LogBlock
{
    struct Line
    {
        bool to_stderr = false; ///< warn -> stderr, inform -> stdout
        std::string text;       ///< full line, no trailing newline
    };
    std::vector<Line> lines;

    bool empty() const { return lines.empty(); }
};

/**
 * Start capturing this thread's warn()/inform() output into a buffer.
 * Panics if a capture is already active on this thread (no nesting).
 */
void beginLogBuffer();

/** Stop capturing and return everything buffered since begin. */
LogBlock endLogBuffer();

/** True while this thread's log output is being buffered. */
bool logBufferActive();

/**
 * Emit a captured block to the real streams as one atomic unit (the
 * whole block prints under the log mutex, never interleaved).
 */
void replayLog(const LogBlock &block);

} // namespace barre

#define barre_panic(...) \
    ::barre::panicImpl(__FILE__, __LINE__, ::barre::csprintf(__VA_ARGS__))

#define barre_fatal(...) \
    ::barre::fatalImpl(__FILE__, __LINE__, ::barre::csprintf(__VA_ARGS__))

#define barre_warn(...) \
    ::barre::warnImpl(::barre::csprintf(__VA_ARGS__))

#define barre_inform(...) \
    ::barre::informImpl(::barre::csprintf(__VA_ARGS__))

/** Invariant check that survives NDEBUG; use for simulator soundness. */
#define barre_assert(cond, ...)                                            \
    do {                                                                   \
        if (!(cond)) {                                                     \
            ::barre::panicImpl(__FILE__, __LINE__,                         \
                "assertion '" #cond "' failed: "                           \
                + ::barre::csprintf(__VA_ARGS__));                         \
        }                                                                  \
    } while (0)

