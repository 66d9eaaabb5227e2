/**
 * @file
 * Host-speed calibration.
 *
 * On a shared host the same code runs up to 40% slower for minutes at a
 * time: other tenants compete for the cores and caches. CPU time does
 * not help, since the slowed thread is running, not waiting. So the
 * benchmark times a fixed reference kernel right before and right after
 * each repetition, on as many threads as the repetition uses, and
 * scales the repetition's host times by the kernel's time. Host drift
 * then cancels as far as the kernel slows down as much as the
 * simulator, while a change to the simulator still shows in full.
 *
 * The kernel depends on nothing under src/. Changing it (or
 * kReferenceCalibS) changes every scaled time, so leave both as they are.
 */

#pragma once

namespace perfbench
{

/** Host seconds of one calibration, over its threads. */
struct CalibTime
{
    /** Work shared out by a pool, whose workers balance the load. */
    double mean_s = 0;
    /** Threads that wait for each other, held back by the slowest. */
    double max_s = 0;
};

/**
 * Run the reference kernel once on each of @p threads threads at the
 * same time: event-heap pops and pushes with a random hash-table update
 * per event over a 16 MiB table per thread, the simulator's hot-loop
 * mix.
 */
CalibTime calibrate(unsigned threads);

/**
 * Scaled host times are host seconds × kReferenceCalibS / the kernel's
 * time: seconds on a host where the kernel takes 50 ms, about its time
 * on a 4-core Intel Xeon (GCC 12.2, Release).
 */
constexpr double kReferenceCalibS = 0.05;

} // namespace perfbench
