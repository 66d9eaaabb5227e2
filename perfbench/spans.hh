/**
 * @file
 * Benchmark-side span recorder.
 *
 * Every call the benchmark makes into a simulator layer is bracketed by
 * a SpanRecorder::Scope. A scope always measures its own duration (the
 * untraced run reads its end-to-end timers from the same scopes); only
 * when recording is on does it also keep a Span — name, layer, start,
 * end, parent and cell id — in memory. The spans are written once, as
 * Chrome trace-event JSON, when the benchmark ends.
 */

#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench
{

using Clock = std::chrono::steady_clock;

struct Span
{
    std::string name;  ///< the called function, e.g. "System::run"
    std::string layer; ///< the repo module it belongs to, e.g. "sim"
    std::string label; ///< free-form detail, e.g. the cell's scenario
    double start_s = 0;
    double end_s = 0;
    std::int64_t id = 0;
    std::int64_t parent = -1; ///< -1: a root span
    std::int64_t cell = -1;   ///< -1: not inside a simulation cell
    std::uint32_t thread = 0;

    double duration() const { return end_s - start_s; }
};

class SpanRecorder
{
  public:
    explicit SpanRecorder(bool recording);

    bool recording() const { return recording_; }
    /** Switch recording; only while no scope is open on any thread. */
    void setRecording(bool on) { recording_ = on; }

    /** Times one call; records a span on stop() when recording. */
    class Scope
    {
      public:
        /** @param parent -1: the innermost open scope on this thread. */
        Scope(SpanRecorder &rec, std::string layer, std::string name,
              std::int64_t cell = -1, std::int64_t parent = -1,
              std::string label = "");
        ~Scope() { stop(); }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

        /** Close the span (idempotent); @return its duration in s. */
        double stop();
        std::int64_t id() const { return id_; }

      private:
        SpanRecorder &rec_;
        std::string layer_;
        std::string name_;
        std::string label_;
        std::int64_t cell_;
        std::int64_t parent_;
        std::int64_t id_;
        Clock::time_point start_;
        double elapsed_ = -1;
    };

    /** A fresh cell id (spans of one simulation cell share it). */
    std::int64_t newCell();

    /** Snapshot of the recorded spans. */
    std::vector<Span> spans() const;

    /**
     * Sum of the durations of spans named @p name whose cell lies in
     * [first_cell, last_cell).
     */
    double sum(const std::string &name, std::int64_t first_cell,
               std::int64_t last_cell) const;

    /** Write the spans as Chrome trace-event JSON; @return success. */
    bool writeChromeTrace(const std::string &path) const;

  private:
    double since(Clock::time_point t) const;

    bool recording_;
    const Clock::time_point origin_;

    mutable std::mutex mu_; ///< guards the members below
    std::vector<Span> spans_;
    std::int64_t next_id_ = 0;
    std::int64_t next_cell_ = 0;
};

} // namespace perfbench
