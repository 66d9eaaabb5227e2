/**
 * @file
 * Concurrency stress for the parallel harness, written to give
 * ThreadSanitizer something to chew on (-DBARRE_SANITIZE=thread).
 *
 * Hammers the three places host threads actually share state:
 * parallelFor()'s start-order cursor and per-call thread lifecycle,
 * runMany()'s fan-out/collect path, and the line-atomic logging mutex.
 * Each test also asserts the functional contract (deterministic
 * results, every task ran exactly once), so the suite is meaningful in
 * plain builds too.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <thread>
#include <vector>

#include "harness/experiment.hh"
#include "harness/pool.hh"
#include "sim/logging.hh"

using namespace barre;

namespace
{

constexpr unsigned kWorkers = 8;

SystemConfig
tinyCfg(TranslationMode mode)
{
    SystemConfig cfg;
    cfg.mode = mode;
    cfg.workload_scale = 0.02;
    return cfg;
}

/**
 * Busy work of @p units: uneven task weights keep the threads racing
 * for the start-order cursor at different rates.
 */
void
spin(std::size_t units)
{
    volatile std::uint64_t sink = 0;
    for (std::size_t k = 0; k < units * 100; ++k)
        sink = sink + k;
}

} // namespace

TEST(ThreadPoolStress, ManyBatchesRunEveryTaskOnce)
{
    constexpr std::size_t tasks = 512;
    std::vector<std::atomic<std::uint32_t>> ran(tasks);
    for (int batch = 0; batch < 32; ++batch) {
        for (auto &r : ran)
            r.store(0, std::memory_order_relaxed);
        parallelFor(kWorkers, tasks, [&](std::size_t i) {
            spin(i % 7);
            ran[i].fetch_add(1, std::memory_order_relaxed);
        });
        for (std::size_t i = 0; i < tasks; ++i)
            ASSERT_EQ(ran[i].load(), 1u) << "task " << i;
    }
}

TEST(ThreadPoolStress, ExceptionsPropagateUnderContention)
{
    std::atomic<std::size_t> ran{0};
    EXPECT_THROW(parallelFor(kWorkers, 256,
                             [&](std::size_t i) {
                                 spin(i % 5);
                                 ran.fetch_add(1);
                                 if (i % 50 == 0)
                                     throw std::runtime_error("boom");
                             }),
                 std::runtime_error);
    // Every task still ran, including those after each thread's
    // first throw.
    EXPECT_EQ(ran.load(), 256u);
}

TEST(LoggingStress, ConcurrentWarnAndPanicStayLineAtomic)
{
    std::atomic<std::size_t> panics{0};
    parallelFor(kWorkers, kWorkers * 8, [&](std::size_t i) {
        if (i % 8 == 0) {
            try {
                barre_panic("stress panic from task %zu", i);
            } catch (const std::logic_error &) {
                panics.fetch_add(1);
            }
        } else {
            barre_warn("stress warn from task %zu", i);
        }
    });
    EXPECT_EQ(panics.load(), kWorkers);
}

TEST(RunManyStress, EightWorkersMatchSerial)
{
    std::vector<NamedConfig> cfgs = {
        {"baseline", tinyCfg(TranslationMode::baseline)},
        {"barre", tinyCfg(TranslationMode::barre)},
        {"fbarre", tinyCfg(TranslationMode::fbarre)},
    };
    std::vector<ScenarioSpec> specs = {ScenarioSpec::solo("cov"),
                                       ScenarioSpec::solo("fft"),
                                       ScenarioSpec::solo("atax")};

    std::vector<RunMetrics> par = runMany(cfgs, specs, kWorkers);
    std::vector<RunMetrics> ser = runMany(cfgs, specs, 1);

    ASSERT_EQ(par.size(), cfgs.size() * specs.size());
    ASSERT_EQ(ser.size(), par.size());
    for (std::size_t i = 0; i < par.size(); ++i) {
        EXPECT_EQ(par[i].config, ser[i].config) << "cell " << i;
        EXPECT_EQ(par[i].runtime, ser[i].runtime) << "cell " << i;
        EXPECT_EQ(par[i].ats_packets, ser[i].ats_packets) << "cell " << i;
        EXPECT_EQ(par[i].l2_tlb_misses, ser[i].l2_tlb_misses)
            << "cell " << i;
    }
}

TEST(RunManyStress, OversubscribedPoolSurvivesRepeatedSweeps)
{
    // More workers than cells and more workers than host cores: the
    // per-call spawn/join path gets exercised on an oversubscribed
    // host.
    std::vector<NamedConfig> cfgs = {
        {"barre", tinyCfg(TranslationMode::barre)}};
    std::vector<ScenarioSpec> specs = {ScenarioSpec::solo("cov")};
    std::vector<RunMetrics> first = runMany(cfgs, specs, kWorkers * 2);
    for (int rep = 0; rep < 3; ++rep) {
        std::vector<RunMetrics> again = runMany(cfgs, specs, kWorkers * 2);
        ASSERT_EQ(again.size(), first.size());
        EXPECT_EQ(again[0].runtime, first[0].runtime);
    }
}
