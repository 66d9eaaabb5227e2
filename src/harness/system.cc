#include "harness/system.hh"

#include <algorithm>
#include <cmath>

#include "harness/domain_scheduler.hh"
#include "sim/logging.hh"

namespace barre
{

double
geomean(const std::vector<double> &xs)
{
    if (xs.empty())
        return 0.0;
    double log_sum = 0.0;
    for (double x : xs)
        log_sum += std::log(x);
    return std::exp(log_sum / static_cast<double>(xs.size()));
}

namespace
{

/**
 * @p app 's CTA count as @p cfg runs it: workload_scale applied and
 * floored at four CTAs per chiplet, then @p tenant_scale applied and
 * floored at one.
 */
AppParams
scaleCtas(const SystemConfig &cfg, AppParams app, double tenant_scale)
{
    if (cfg.workload_scale != 1.0) {
        app.ctas = std::max<std::uint32_t>(
            cfg.chiplets * 4,
            static_cast<std::uint32_t>(app.ctas * cfg.workload_scale));
    }
    if (tenant_scale != 1.0) {
        app.ctas = std::max<std::uint32_t>(
            1, static_cast<std::uint32_t>(app.ctas * tenant_scale));
    }
    return app;
}

} // namespace

System::System(SystemConfig cfg) : System(freezeConfig(std::move(cfg)))
{}

System::System(SystemConfigHandle cfg)
    : cfg_handle_(std::move(cfg)), cfg_(*cfg_handle_)
{
    // Multicast pushes the group of a coalesced IOMMU walk; anywhere
    // else it would silently do nothing.
    if (cfg_.iommu.multicast && (!cfg_.iommu.barre || cfg_.use_gmmu))
        barre_fatal("iommu.multicast needs Barre translation on the "
                    "IOMMU platform (mode barre or fbarre, no GMMU)");
    // Demand paging and migration change PTEs mid-run; both are modeled
    // on the IOMMU platform only, where every page walk is host-side.
    if (cfg_.driver.demand_paging && cfg_.use_gmmu)
        barre_fatal("demand paging is modeled on the IOMMU platform "
                    "only (no GMMU)");
    if (cfg_.migration.enabled && cfg_.use_gmmu)
        barre_fatal("migration is modeled on the IOMMU platform only "
                    "(no GMMU)");
    std::uint64_t frames =
        cfg_.mem_bytes_per_chiplet >> pageShift(cfg_.page_size);
    map_ = std::make_unique<MemoryMap>(cfg_.chiplets, frames);
    noc_ = std::make_unique<Interconnect>(eq_, "noc", cfg_.chiplets,
                                          cfg_.noc);
    pcie_ = std::make_unique<Pcie>(eq_, "pcie", cfg_.pcie);
    iommu_ = std::make_unique<Iommu>(eq_, "iommu", cfg_.iommu, *pcie_,
                                     *map_);
    driver_ = std::make_unique<GpuDriver>(*map_, cfg_.driver);

    if (cfg_.use_gmmu) {
        gmmu_ = std::make_unique<GmmuSystem>(
            eq_, "gmmu", cfg_.gmmu, cfg_.chiplets, *noc_, *map_,
            [this](ProcessId pid, Vpn vpn) { return homeOf(pid, vpn); });
    }

    for (std::uint32_t c = 0; c < cfg_.chiplets; ++c) {
        chiplets_.push_back(std::make_unique<Chiplet>(
            eq_, "gpu" + std::to_string(c), c, cfg_.chiplet, *map_,
            *noc_));
    }
    std::vector<Chiplet *> peers;
    for (auto &c : chiplets_)
        peers.push_back(c.get());
    for (auto &c : chiplets_)
        c->setPeers(peers);

    if (cfg_.shared_l2_tlb) {
        // The Fig 5/6 hypothetical: one physical L2 TLB with 4x entries
        // and bandwidth, owned by the host domain and reached over
        // short per-chiplet request/response links.
        TlbParams tp = cfg_.chiplet.l2_tlb;
        tp.entries *= cfg_.chiplets;
        tp.mshrs *= cfg_.chiplets;
        shared_tlb_svc_ = std::make_unique<SharedTlbService>(
            eq_, "shared", cfg_.shared_tlb, tp, cfg_.chiplets,
            cfg_.chiplet.retry_interval);
        for (auto &c : chiplets_)
            c->connectSharedTlb(shared_tlb_svc_.get());
    }

    buildService();
    if (shared_tlb_svc_)
        shared_tlb_svc_->setService(active_service_);

    if (cfg_.driver.demand_paging) {
        iommu_->setFaultHandler([this](ProcessId pid, Vpn vpn) {
            driver_->faultIn(pid, vpn);
        });
    }

    if (cfg_.iommu.multicast) {
        iommu_->setFillSink([this](ChipletId c, const AtsResponse &r) {
            chiplets_[c]->unsolicitedFill(r);
        });
    }

    if (cfg_.migration.enabled) {
        migrator_ = std::make_unique<AcudMigrator>(
            eq_, "migrator", *driver_, *pcie_, cfg_.chiplets,
            cfg_.migration);
        migrator_->setInterconnect(noc_.get());
        // Each chiplet invalidates its own translations when its copy
        // of the shootdown broadcast arrives.
        migrator_->setInvalidateHook(
            [this](ChipletId c, ProcessId pid,
                   const std::vector<Vpn> &vpns) {
                chiplets_[c]->shootdownVpns(pid, vpns);
            });
        // The package-shared L2 TLB is host-owned; its stale entries
        // drop in the driver's context when the broadcast launches,
        // not from the chiplet-side hooks above.
        if (shared_tlb_svc_) {
            migrator_->setHostInvalidateHook(
                [this](ProcessId pid, const std::vector<Vpn> &vpns) {
                    for (Vpn vpn : vpns)
                        shared_tlb_svc_->tlb().invalidate(pid, vpn);
                });
        }
        for (auto &c : chiplets_)
            c->setMigrator(migrator_.get());
    }

    if (cfg_.validate_translations && !cfg_.migration.enabled) {
        // Runs chiplet-side while the host may fault pages in; each
        // check reads a PTE installed before its translation left the
        // host (DESIGN.md §8).
        const GpuDriver &driver = *driver_;
        auto check = [&driver](ProcessId pid, Vpn vpn, Pfn pfn,
                               bool calculated) {
            auto pte = driver.pageTable(pid).walk(vpn);
            barre_assert(pte.has_value(),
                         "translation for unmapped vpn 0x%llx",
                         (unsigned long long)vpn);
            barre_assert(pte->pfn() == pfn,
                         "%s translation wrong for vpn 0x%llx: "
                         "got 0x%llx want 0x%llx",
                         calculated ? "calculated" : "walked",
                         (unsigned long long)vpn,
                         (unsigned long long)pfn,
                         (unsigned long long)pte->pfn());
        };
        // One validator per L2 TLB stage; with the shared L2 TLB the
        // fills complete host-side.
        if (shared_tlb_svc_) {
            shared_tlb_svc_->l2().setValidator(check);
        } else {
            for (auto &c : chiplets_)
                c->setValidator(check);
        }
    }

    cus_.resize(cfg_.chiplets);
    next_cu_.assign(cfg_.chiplets, 0);
    for (std::uint32_t c = 0; c < cfg_.chiplets; ++c) {
        for (std::uint32_t u = 0; u < cfg_.cus_per_chiplet; ++u) {
            cus_[c].push_back(std::make_unique<Cu>(
                eq_,
                "gpu" + std::to_string(c) + ".cu" + std::to_string(u),
                *chiplets_[c], u, cfg_.cu));
        }
    }

    registerStats();
    setupPartition();
    setupDomainGuard();
}

System::~System() = default;

void
System::buildService()
{
    // The conventional fallback path: IOMMU, or GMMUs on the MGvm
    // platform.
    TranslationService *fallback = nullptr;
    if (cfg_.use_gmmu) {
        gmmu_service_ = std::make_unique<GmmuService>(*gmmu_);
        fallback = gmmu_service_.get();
    } else {
        ats_service_ = std::make_unique<AtsService>(*iommu_);
        fallback = ats_service_.get();
    }

    switch (cfg_.mode) {
      case TranslationMode::baseline:
      case TranslationMode::barre:
        active_service_ = fallback;
        break;
      case TranslationMode::valkyrie:
        valkyrie_ = std::make_unique<ValkyrieService>(
            *iommu_, cfg_.valkyrie, cfg_.chiplets);
        // The host-owned shared L2 TLB cannot be peeked from chiplet
        // context.
        for (std::uint32_t c = 0; c < cfg_.chiplets; ++c) {
            valkyrie_->attachL2Tlb(
                c, shared_tlb_svc_ ? nullptr : &chiplets_[c]->l2Tlb());
        }
        valkyrie_->setFillSink([this](ChipletId c, const AtsResponse &r) {
            chiplets_[c]->unsolicitedFill(r);
        });
        active_service_ = valkyrie_.get();
        break;
      case TranslationMode::least:
        least_ = std::make_unique<LeastService>(
            eq_, "least", *iommu_, *noc_, cfg_.chiplets, cfg_.least);
        for (std::uint32_t c = 0; c < cfg_.chiplets; ++c)
            least_->attachL2Tlb(c, &chiplets_[c]->l2Tlb());
        if (cfg_.shared_l2_tlb)
            least_->setSharedL2Bypass();
        active_service_ = least_.get();
        break;
      case TranslationMode::fbarre:
        fbarre_ = std::make_unique<FBarreService>(
            eq_, "fbarre", cfg_.fbarre, cfg_.chiplets, *noc_, *map_,
            *fallback);
        for (std::uint32_t c = 0; c < cfg_.chiplets; ++c)
            fbarre_->attachL2Tlb(c, &chiplets_[c]->l2Tlb());
        if (cfg_.shared_l2_tlb)
            fbarre_->setSharedL2Bypass();
        active_service_ = fbarre_.get();
        break;
    }

    for (auto &c : chiplets_)
        c->setService(active_service_);
}

void
System::setupPartition()
{
    const std::uint32_t domains =
        std::clamp(cfg_.sim_domains, 1u, cfg_.chiplets + 1);

    const std::size_t tags = std::size_t(cfg_.chiplets) + 1;
    std::vector<std::uint32_t> tag_domain(tags, 0);
    if (domains >= 2) {
        // The host tag always gets domain 0 to itself so the PCIe
        // upstream link's arbitration is either fully inline (one
        // domain) or fully staged — never a mix.
        for (std::uint32_t c = 0; c < cfg_.chiplets; ++c)
            tag_domain[chipletTag(c)] = 1 + c % (domains - 1);
    }

    // Conservative lookahead: the true minimum over every link that
    // can carry a cross-domain message of (1 serialization cycle +
    // latency). PCIe and the shared-TLB links cross whenever the host
    // is split off; the NoC and the oracle's cross-chiplet updates only
    // cross once chiplets land in at least two distinct domains. With
    // no crossing link (one domain) the lookahead stays max_tick and
    // the run drains in one epoch.
    Tick lookahead = max_tick;
    if (domains >= 2) {
        lookahead = std::min<Tick>(lookahead, 1 + cfg_.pcie.latency);
        if (cfg_.shared_l2_tlb) {
            lookahead = std::min<Tick>(lookahead,
                                       1 + cfg_.shared_tlb.latency);
        }
    }
    if (domains >= 3 && cfg_.chiplets >= 2) {
        lookahead = std::min<Tick>(lookahead, 1 + cfg_.noc.latency);
        if (cfg_.mode == TranslationMode::fbarre &&
            cfg_.fbarre.oracle_sharing) {
            // Oracle filter updates are scheduled across chiplets at
            // exactly oracle_latency — no serialization cycle — so the
            // epoch cannot reach past that.
            lookahead = std::min<Tick>(lookahead,
                                       cfg_.fbarre.oracle_latency);
        }
    }
    lookahead_ = lookahead;
    eq_.enableTags(std::move(tag_domain), domains);
    stats_.shard(tags);
}

void
System::registerStats()
{
    stats_ = StatRegistry{};
    for (auto &c : chiplets_)
        c->regStats(stats_);
    iommu_->regStats(stats_);
    if (fbarre_)
        fbarre_->regStats(stats_);
    if (gmmu_)
        gmmu_->regStats(stats_);
    noc_->regStats(stats_);
    pcie_->regStats(stats_);
    if (engine_)
        engine_->regStats(stats_);
    driver_->regStats(stats_);
    if (migrator_)
        migrator_->regStats(stats_);
}

void
System::setupDomainGuard()
{
    DomainGuard *g = &guard_;
    for (auto &c : chiplets_)
        c->bindDomains(g);
    if (shared_tlb_svc_)
        shared_tlb_svc_->bindDomains(g);
    iommu_->bindDomainTree(g);
    driver_->bindDomainTree(g);
    if (gmmu_)
        gmmu_->bindDomains(g);
    if (migrator_)
        migrator_->bindDomains(g);
    if (valkyrie_)
        valkyrie_->bindDomains(g);
    if (least_)
        least_->bindDomains(g);
    if (fbarre_)
        fbarre_->bindDomains(g);
}

ChipletId
System::homeOf(ProcessId pid, Vpn vpn) const
{
    // MGvm places page-table leaves with the data they translate.
    for (const auto &a : all_allocs_) {
        if (a.pid == pid && vpn >= a.start_vpn &&
            vpn < a.start_vpn + a.pages) {
            return a.layout.chipletOf(vpn);
        }
    }
    return static_cast<ChipletId>(vpn % cfg_.chiplets);
}

std::vector<DataAlloc>
System::allocate(const AppParams &app, ProcessId pid)
{
    std::vector<DataAlloc> allocs;
    for (const auto &spec : app.buffers) {
        std::uint64_t bytes = std::max<std::uint64_t>(spec.bytes, 1);
        std::uint64_t pages =
            (bytes + pageBytes(cfg_.page_size) - 1) >>
            pageShift(cfg_.page_size);
        allocs.push_back(driver_->gpuMalloc(pid, pages, spec.traits));
    }

    PageTable &pt = driver_->pageTable(pid);
    iommu_->attachPageTable(pt);
    if (gmmu_)
        gmmu_->attachPageTable(pt);

    // Register the coalesced buffers' PEC entries with the walkers'
    // shared PEC buffer (driver -> IOMMU path, §IV-G).
    for (const auto &entry : driver_->pecEntries()) {
        iommu_->pecBuffer().insert(entry);
        if (gmmu_)
            gmmu_->pecBuffer().insert(entry);
    }

    for (const auto &a : allocs)
        all_allocs_.push_back(a);
    return allocs;
}

const char *
System::scenarioBlocker() const
{
    // The churn engine mutates driver/IOMMU state mid-run (arrivals
    // allocate, exits tear down); anything that reads that state from
    // outside the host context — or that has no process-exit path —
    // cannot carry a dynamic scenario yet.
    if (cfg_.use_gmmu)
        return "the GMMU platform (no GMMU detach path)";
    if (cfg_.driver.demand_paging)
        return "demand paging's mid-run page-table mutation";
    if (cfg_.shared_l2_tlb)
        return "the package-shared L2 TLB hypothetical";
    if (cfg_.migration.enabled)
        return "page migration racing process teardown";
    if (cfg_.iommu.multicast)
        return "IOMMU multicast pushes (unsolicited fills may land "
               "after exit)";
    if (cfg_.mode == TranslationMode::valkyrie ||
        cfg_.mode == TranslationMode::least)
        return "a TLB-sharing translation service";
    if (cfg_.validate_translations)
        return "synchronous page-table validation";
    return nullptr;
}

void
System::loadScenario(const ScenarioSpec &spec)
{
    barre_assert(!engine_ && total_accesses_ == 0,
                 "loadScenario() must be the only workload load");
    const std::vector<ResolvedTenant> tenants = spec.resolve();

    if (!spec.dynamicArrivals()) {
        // Static preload: plan each tenant in pid order as if it
        // arrived at tick 0, and append its jobs to the CUs' streams,
        // which start() launches when the run begins.
        ProcessId pid = 1;
        for (const ResolvedTenant &t : tenants)
            preload(planTenant(scaleCtas(cfg_, t.app, t.scale), pid++));
        return;
    }

    if (const char *why = scenarioBlocker()) {
        barre_fatal("dynamic scenario '%s' is unsupported on this "
                    "configuration: %s",
                    spec.label().c_str(), why);
    }

    engine_ = std::make_unique<ScenarioEngine>(eq_, "scenario", *pcie_,
                                               cfg_.chiplets);
    for (const ResolvedTenant &t : tenants) {
        // The engine stores the tenant's app with its CTA count fully
        // scaled, so planTenant() at arrival time is scale-free.
        engine_->addTenant(scaleCtas(cfg_, t.app, t.scale), t.arrival);
    }

    engine_->setHooks(
        [this](const AppParams &app, ProcessId pid) {
            return planTenant(app, pid);
        },
        [this](ChipletId c, std::uint32_t cu,
               std::vector<AccessDesc> accesses,
               EventQueue::Callback done) {
            cus_[c][cu]->launchJob(std::move(accesses), std::move(done));
        },
        [this](ChipletId c, ProcessId pid) {
            chiplets_[c]->shootdownAsid(pid);
        },
        [this](ProcessId pid) {
            // Detach the IOMMU first: it holds a pointer into the page
            // table processExit() destroys.
            iommu_->detachProcess(pid);
            driver_->processExit(pid);
        });
    engine_->bindDomains(&guard_);
    registerStats();

    for (std::uint32_t c = 0; c < cfg_.chiplets; ++c) {
        chiplets_[c]->setLatencyProbe(
            [this, c](ProcessId pid, Cycles lat) {
                engine_->recordLatency(c, pid, lat);
            });
    }
}

ScenarioEngine::LaunchPlan
System::planTenant(const AppParams &app, ProcessId pid, const Trace *trace)
{
    auto allocs = allocate(app, pid);

    // One job per CU, its CTAs' streams in CTA order, so a CU's share
    // issues with its usual mlp slots no matter how many CTAs land on
    // it.
    ScenarioEngine::LaunchPlan plan(cfg_.chiplets);
    std::vector<std::vector<std::int32_t>> job_of(
        cfg_.chiplets,
        std::vector<std::int32_t>(cfg_.cus_per_chiplet, -1));
    std::uint64_t accesses_planned = 0;
    for (std::uint32_t t = 0; t < app.ctas; ++t) {
        auto accesses = trace ? trace->ctas[t]
                              : generateCta(app, allocs, t, cfg_.page_size);
        ChipletId c = assignCta(cfg_.driver.policy, app, allocs, t,
                                cfg_.chiplets);
        std::uint32_t u = next_cu_[c]++ % cfg_.cus_per_chiplet;
        accesses_planned += accesses.size();
        if (job_of[c][u] < 0) {
            job_of[c][u] = static_cast<std::int32_t>(plan[c].size());
            plan[c].push_back(ScenarioEngine::CuJob{u, {}});
        }
        auto &stream = plan[c][job_of[c][u]].accesses;
        stream.insert(stream.end(), accesses.begin(), accesses.end());
    }
    total_accesses_ += accesses_planned;
    total_instructions_ +=
        static_cast<double>(accesses_planned) * app.instr_per_access;
    return plan;
}

void
System::preload(ScenarioEngine::LaunchPlan plan)
{
    for (ChipletId c = 0; c < cfg_.chiplets; ++c)
        for (ScenarioEngine::CuJob &job : plan[c])
            cus_[c][job.cu]->addStream(std::move(job.accesses));
}

void
System::auditNoStaleAsid() const
{
    barre_assert(engine_, "ASID audit without a scenario engine");
    for (const auto &ts : engine_->tenantStates()) {
        if (!ts.done)
            continue;
        for (std::uint32_t c = 0; c < cfg_.chiplets; ++c) {
            std::uint64_t left = chiplets_[c]->asidResidency(ts.pid);
            barre_assert(left == 0,
                         "stale ASID: %llu TLB entries for exited "
                         "tenant %u still in gpu%u",
                         (unsigned long long)left, ts.pid, c);
        }
        if (const Tlb *tlb = iommu_->iommuTlb()) {
            std::uint64_t left = tlb->occupancy(ts.pid);
            barre_assert(left == 0,
                         "stale ASID: %llu IOMMU-TLB entries for "
                         "exited tenant %u",
                         (unsigned long long)left, ts.pid);
        }
    }
}

void
System::dumpStats(std::ostream &os) const
{
    os << "sim.ticks " << eq_.now() << "\n";
    stats_.dump(os);
}

Trace
System::recordAppTrace(const AppParams &app)
{
    // Record what this system would actually run: the same
    // workload_scale flooring as the preload path.
    return recordTrace(scaleCtas(cfg_, app, 1.0), allocate(app, 1),
                       cfg_.page_size);
}

void
System::loadTrace(const Trace &trace, const AppParams &app)
{
    // Plan as the recorded run did: the same allocation (pid 1) and
    // the same placement of CTA t, with the trace's streams.
    AppParams traced = app;
    traced.ctas = static_cast<std::uint32_t>(trace.ctas.size());
    preload(planTenant(traced, 1, &trace));
    for (std::size_t t = 0; t < trace.ctas.size(); ++t) {
        const auto &stream = trace.ctas[t];
        for (std::size_t i = 0; i < stream.size(); ++i) {
            const AccessDesc &a = stream[i];
            const Vpn vpn = vpnOf(a.vaddr, cfg_.page_size);
            if (std::none_of(all_allocs_.begin(), all_allocs_.end(),
                             [&](const DataAlloc &d) {
                                 return d.pid == a.pid &&
                                        vpn >= d.start_vpn &&
                                        vpn < d.start_vpn + d.pages;
                             })) {
                barre_fatal("trace access %zu of CTA %zu (pid %u, vaddr "
                            "0x%llx) lies in no buffer of %s",
                            i, t, unsigned(a.pid),
                            (unsigned long long)a.vaddr,
                            app.name.c_str());
            }
        }
    }
}

RunMetrics
System::run()
{
    barre_assert(!ran_, "System::run() is one-shot");
    ran_ = true;
    // Dynamic scenarios count accesses lazily, at each arrival.
    barre_assert(engine_ || total_accesses_ > 0, "no workload loaded");

    // Checks only bite between here and the end of the drain: setup /
    // harvest code legitimately pokes components from the host context.
    guard_.setMode(DomainGuard::resolveMode(guard_.mode(), partitioned()));

    if (engine_) {
        // Arrivals are host-domain events; their chiplet effects ride
        // PCIe (workloads/scenario_engine.hh).
        EventQueue::TagScope scope(eq_, kHostTag);
        engine_->begin();
    }

    // Start each chiplet's CUs inside that chiplet's tag context and
    // track completion per tag, so each cell is single-writer in
    // partitioned runs. The finish tick is the latest per-tag finish:
    // the tick at which the last CU anywhere completes.
    tag_done_.assign(cfg_.chiplets + 1, TagDone{});
    for (std::uint32_t c = 0; c < cfg_.chiplets; ++c) {
        const SeqTag t = chipletTag(c);
        EventQueue::TagScope scope(eq_, t);
        for (auto &cu : cus_[c]) {
            if (cu->streamLength() == 0)
                continue;
            ++tag_done_[t].with_work;
            cu->start([this, t]() {
                TagDone &td = tag_done_[t];
                if (++td.done == td.with_work)
                    td.finish = eq_.now();
            });
        }
    }
    const std::uint64_t fired =
        DomainScheduler::run(eq_, lookahead_, cfg_.sim_threads);
    std::uint32_t with_work = 0;
    std::uint32_t done = 0;
    for (const TagDone &td : tag_done_) {
        with_work += td.with_work;
        done += td.done;
        finish_tick_ = std::max(finish_tick_, td.finish);
    }
    // Post-run harvest reads every component from the host context;
    // stop checking.
    guard_.setMode(DomainAuditMode::off);
    barre_assert(done == with_work,
                 "simulation drained with %u/%u CUs unfinished",
                 with_work - done, with_work);
    if (engine_) {
        barre_assert(engine_->allRetired(),
                     "scenario drained with tenants unretired");
        finish_tick_ = engine_->lastRetireTick();
        auditNoStaleAsid();
    }

    RunMetrics m;
    m.config = to_string(cfg_.mode);
    m.runtime = finish_tick_;
    m.accesses = total_accesses_;
    m.instructions = total_instructions_;
    m.sim_events = fired;

    // Everything else is read from the stats registry.
    for (const MetricField &f : kMetricFields) {
        if (!f.stat || !stats_.contains(f.stat))
            continue;
        if (auto *mean = std::get_if<double RunMetrics::*>(&f.field))
            m.*(*mean) = stats_.mean(f.stat);
        else
            m.*std::get<std::uint64_t RunMetrics::*>(f.field) =
                stats_.count(f.stat) - (f.minus ? stats_.count(f.minus) : 0);
    }
    m.l2_mpki = m.instructions > 0
                    ? m.l2_tlb_misses / (m.instructions / 1000.0)
                    : 0.0;

    if (engine_) {
        for (const auto &ts : engine_->tenantStates()) {
            TenantMetrics t;
            t.app = ts.app.name;
            t.pid = ts.pid;
            t.arrival = ts.launched;
            t.finish = ts.finished;
            t.retired = ts.retired;
            t.accesses = ts.accesses;
            LogHistogram lat = engine_->mergedLatency(ts.pid);
            t.lat_p50 = lat.percentile(0.50);
            t.lat_p95 = lat.percentile(0.95);
            t.lat_p99 = lat.percentile(0.99);
            for (const auto &c : chiplets_)
                t.peak_l2_tlb += c->l2Tlb().peakOccupancy(ts.pid);
            m.tenants.push_back(std::move(t));
        }
    }
    return m;
}

} // namespace barre
