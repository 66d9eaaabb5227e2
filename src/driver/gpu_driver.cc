#include "driver/gpu_driver.hh"

#include <algorithm>
#include <bit>

#include "sim/invariant.hh"
#include "sim/logging.hh"

namespace barre
{

GpuDriver::GpuDriver(const MemoryMap &map, const DriverParams &params)
    : map_(map), params_(params)
{
    barre_assert(params.merge_limit >= 1 && params.merge_limit <= 4,
                 "merge_limit must be 1..4 (PTE field width)");
    Rng frag_rng(params.frag_seed);
    for (std::uint32_t c = 0; c < map.numChiplets(); ++c) {
        allocators_.push_back(
            std::make_unique<FrameAllocator>(map.framesPerChiplet()));
        if (params.fragmentation > 0.0)
            allocators_.back()->injectFragmentation(params.fragmentation,
                                                    frag_rng);
    }
}

void
GpuDriver::bindDomainTree(DomainGuard *guard)
{
    bindDomain(guard, kHostTag, "driver");
    for (auto &[pid, pt] : page_tables_) {
        pt->bindDomain(guard, kHostTag,
                       "driver.pt" + std::to_string(pid));
    }
}

PageTable &
GpuDriver::pageTable(ProcessId pid)
{
    auto &slot = page_tables_[pid];
    if (!slot) {
        slot = std::make_unique<PageTable>(pid);
        // Tables created after the System bound the machine (first
        // gpuMalloc of a late-arriving process) inherit the binding.
        if (domainGuard()) {
            slot->bindDomain(domainGuard(), kHostTag,
                             "driver.pt" + std::to_string(pid));
        }
    }
    return *slot;
}

FrameAllocator &
GpuDriver::allocator(ChipletId chiplet)
{
    barre_assert(chiplet < allocators_.size(), "chiplet out of range");
    return *allocators_[chiplet];
}

void
GpuDriver::mapPageIndividually(PageTable &pt, const PecEntry &layout,
                               Vpn vpn)
{
    ChipletId chiplet = layout.chipletOf(vpn);
    auto frame = allocators_[chiplet]->allocateAny();
    barre_assert(frame.has_value(), "chiplet %u out of memory", chiplet);
    pt.map(vpn, map_.globalPfn(chiplet, *frame), CoalInfo{});
    ++fallback_pages_;
    ++mapped_pages_;
}

void
GpuDriver::mapGroupCoalesced(PageTable &pt, const PecEntry &layout,
                             const GroupPlan &plan)
{
    // Fewer than two sharers: nothing to coalesce.
    if (plan.members.size() < 2 ||
        plan.members.size() / plan.width < 2) {
        for (auto [k, vpn] : plan.members)
            mapPageIndividually(pt, layout, vpn);
        return;
    }

    // Distinct participating chiplets for the common-frame search.
    std::vector<const FrameAllocator *> peers;
    std::uint32_t participant_bits = 0;
    for (auto [k, vpn] : plan.members) {
        std::uint32_t bit = std::uint32_t{1} << k;
        if (!(participant_bits & bit)) {
            participant_bits |= bit;
            peers.push_back(allocators_[layout.gpu_map[k]].get());
        }
    }

    auto base = FrameAllocator::findCommonFreeRun(
        std::span<const FrameAllocator *>(peers), plan.width);
    if (!base) {
        // No commonly-available frames: conventional allocation (§IV-G).
        for (auto [k, vpn] : plan.members)
            mapPageIndividually(pt, layout, vpn);
        return;
    }

    const bool merged = plan.width > 1;
    for (auto [k, vpn] : plan.members) {
        ChipletId chiplet = layout.gpu_map[k];
        std::uint32_t i = layout.offsetOf(vpn) - plan.base_offset;
        LocalPfn frame = *base + i;
        bool ok = allocators_[chiplet]->allocate(frame);
        barre_assert(ok, "common frame %llu vanished on chiplet %u",
                     (unsigned long long)frame, chiplet);

        CoalInfo ci;
        ci.bitmap = participant_bits;
        ci.interOrder = static_cast<std::uint8_t>(k);
        ci.merged = merged;
        if (merged) {
            ci.intraOrder = static_cast<std::uint8_t>(i);
            ci.numMerged = static_cast<std::uint8_t>(plan.width);
        }
        pt.map(vpn, map_.globalPfn(chiplet, frame), ci);
        ++coalesced_pages_;
        ++mapped_pages_;
        if (merged)
            ++merged_pages_;
    }

    // The group just became live: check that every member resolves to
    // the PEC-calculated PFN before the simulation can depend on it.
    BARRE_AUDIT(
        pec::auditGroup(layout, pt, plan.members.front().second, map_));
}

DataAlloc
GpuDriver::gpuMalloc(ProcessId pid, std::uint64_t pages,
                     const DataTraits &traits)
{
    domainCheck("gpuMalloc");
    barre_assert(pages > 0, "gpuMalloc of zero pages");
    PageTable &pt = pageTable(pid);

    DataAlloc alloc;
    alloc.pid = pid;
    alloc.pages = pages;
    // One-page guard gap between buffers keeps groups from touching.
    Vpn &bump = vpn_bump_[pid];
    if (bump == 0)
        bump = 0x100; // keep VPN 0 unmapped
    alloc.start_vpn = bump;
    bump += pages + 1;

    PecEntry layout = computeLayout(params_.policy, pages,
                                    map_.numChiplets(), traits);
    layout.pid = pid;
    layout.start_vpn = alloc.start_vpn;
    layout.end_vpn = alloc.start_vpn + pages - 1;
    alloc.layout = layout;

    all_layouts_.push_back(layout);

    if (params_.demand_paging) {
        // Nothing is mapped yet; register the PEC entry eagerly when
        // Barre will coalesce the faulted-in groups.
        if (params_.barre && map_.numChiplets() > 1)
            pec_entries_.push_back(layout);
        return alloc;
    }

    const std::uint64_t coalesced_before = coalesced_pages_.value();
    mapAllGroups(pt, layout);
    alloc.coalesced_pages = coalesced_pages_.value() - coalesced_before;

    BARRE_AUDIT({
        std::uint64_t walked = 0;
        for (std::uint64_t p = 0; p < pages; ++p) {
            auto pte = pt.walk(alloc.start_vpn + p);
            barre_assert(pte.has_value(), "page lost during allocation");
            if (pte->coalInfo().coalesced())
                ++walked;
        }
        barre_assert(walked == alloc.coalesced_pages,
                     "page table holds %llu coalesced pages, driver "
                     "counted %llu",
                     (unsigned long long)walked,
                     (unsigned long long)alloc.coalesced_pages);
    });

    // Register the PEC entry if any page coalesced (§IV-G).
    if (alloc.coalesced_pages > 0)
        pec_entries_.push_back(layout);
    return alloc;
}

std::uint32_t
GpuDriver::effectiveWidth(const PecEntry &layout) const
{
    // Merged groups need <= 4 chiplets (PTE field width, §V-B) and
    // blocks that fit inside a stripe.
    std::uint32_t width = params_.merge_limit;
    if (map_.numChiplets() > 4)
        width = 1;
    return std::min<std::uint32_t>(width, layout.gran);
}

void
GpuDriver::mapBlock(PageTable &pt, const PecEntry &layout,
                    std::uint64_t round, std::uint32_t block_offset,
                    std::uint32_t width)
{
    const std::uint64_t pages = layout.pages();
    std::uint32_t w =
        std::min<std::uint32_t>(width, layout.gran - block_offset);
    GroupPlan plan;
    plan.base_offset = block_offset;
    plan.width = w;
    bool complete_blocks = true;
    for (std::uint32_t k = 0; k < layout.num_gpus; ++k) {
        std::uint64_t stripe = round * layout.num_gpus + k;
        std::uint64_t pos0 = stripe * layout.gran + block_offset;
        if (pos0 >= pages)
            continue;
        if (pos0 + w > pages) {
            complete_blocks = false;
            // Partial block: take what exists, singly.
            for (std::uint64_t pos = pos0;
                 pos < std::min<std::uint64_t>(pos0 + w, pages);
                 ++pos) {
                plan.members.emplace_back(k, layout.start_vpn + pos);
            }
            continue;
        }
        for (std::uint32_t i = 0; i < w; ++i)
            plan.members.emplace_back(k, layout.start_vpn + pos0 + i);
    }
    if (plan.members.empty())
        return;
    if (!complete_blocks && w > 1) {
        // Degrade the whole block to per-offset plain groups so merged
        // arithmetic never meets ragged membership.
        for (std::uint32_t i = 0; i < w; ++i) {
            GroupPlan sub;
            sub.base_offset = block_offset + i;
            sub.width = 1;
            for (auto [k, vpn] : plan.members)
                if (layout.offsetOf(vpn) == block_offset + i)
                    sub.members.emplace_back(k, vpn);
            if (!sub.members.empty())
                mapGroupCoalesced(pt, layout, sub);
        }
    } else {
        mapGroupCoalesced(pt, layout, plan);
    }
}

void
GpuDriver::mapAllGroups(PageTable &pt, const PecEntry &layout)
{
    if (!params_.barre) {
        for (std::uint64_t p = 0; p < layout.pages(); ++p)
            mapPageIndividually(pt, layout, layout.start_vpn + p);
        return;
    }
    const std::uint32_t width = effectiveWidth(layout);
    const std::uint64_t stripe_span =
        std::uint64_t{layout.gran} * layout.num_gpus;
    const std::uint64_t rounds =
        (layout.pages() + stripe_span - 1) / stripe_span;
    for (std::uint64_t r = 0; r < rounds; ++r)
        for (std::uint32_t o = 0; o < layout.gran; o += width)
            mapBlock(pt, layout, r, o, width);
}

void
GpuDriver::mapGroupContaining(PageTable &pt, const PecEntry &layout,
                              Vpn vpn)
{
    if (!params_.barre) {
        mapPageIndividually(pt, layout, vpn);
        return;
    }
    const std::uint32_t width = effectiveWidth(layout);
    std::uint32_t block = (layout.offsetOf(vpn) / width) * width;
    mapBlock(pt, layout, layout.roundOf(vpn), block, width);
}

std::vector<Vpn>
GpuDriver::faultIn(ProcessId pid, Vpn vpn)
{
    domainCheck("faultIn");
    barre_assert(params_.demand_paging,
                 "faultIn outside demand-paging mode");
    PageTable &pt = pageTable(pid);
    if (pt.walk(vpn))
        return {}; // raced an earlier fault for the same group

    const PecEntry *layout = nullptr;
    for (const auto &l : all_layouts_) {
        if (l.contains(pid, vpn)) {
            layout = &l;
            break;
        }
    }
    if (!layout)
        return {}; // never reserved: a true fault, surfaced by caller

    ++faults_;
    mapGroupContaining(pt, *layout, vpn);

    // Report what this fault brought in (pages of the group that were
    // unmapped before and are mapped now).
    std::vector<Vpn> mapped;
    auto pte = pt.walk(vpn);
    barre_assert(pte.has_value(), "fault-in failed to map the page");
    CoalInfo ci = pte->coalInfo();
    if (ci.coalesced()) {
        for (Vpn m : pec::groupMembers(*layout, vpn, ci))
            mapped.push_back(m);
    } else {
        mapped.push_back(vpn);
    }
    return mapped;
}

const PecEntry *
GpuDriver::findPecEntry(ProcessId pid, Vpn vpn) const
{
    for (const auto &e : pec_entries_)
        if (e.contains(pid, vpn))
            return &e;
    return nullptr;
}

std::optional<GpuDriver::MigrationResult>
GpuDriver::migratePage(ProcessId pid, Vpn vpn, ChipletId dest)
{
    domainCheck("migratePage");
    barre_assert(dest < map_.numChiplets(), "bad destination chiplet");
    PageTable &pt = pageTable(pid);
    auto pte = pt.walk(vpn);
    if (!pte)
        return std::nullopt;

    Pfn old_pfn = pte->pfn();
    ChipletId owner = map_.chipletOf(old_pfn);
    if (owner == dest)
        return std::nullopt;
    auto frame = allocators_[dest]->allocateAny();
    if (!frame)
        return std::nullopt;

    MigrationResult res;
    res.old_pfn = old_pfn;
    res.new_pfn = map_.globalPfn(dest, *frame);
    res.stale_vpns.push_back(vpn);

    CoalInfo ci = pte->coalInfo();
    if (ci.coalesced()) {
        // Exclude this page's order position from the group; peers keep
        // coalescing among themselves (§VI). Merged groups drop the whole
        // position (its contiguous run is broken).
        const PecEntry *entry = findPecEntry(pid, vpn);
        barre_assert(entry != nullptr,
                     "coalesced page without a PEC entry");
        std::uint32_t my_bit = std::uint32_t{1} << ci.interOrder;
        for (Vpn member : pec::groupMembers(*entry, vpn, ci)) {
            res.stale_vpns.push_back(member);
            if (member == vpn)
                continue;
            auto mpte = pt.walk(member);
            barre_assert(mpte.has_value(), "group member unmapped");
            CoalInfo mci = mpte->coalInfo();
            mci.bitmap &= ~my_bit;
            if (!mci.coalesced())
                mci = CoalInfo{};
            pt.updateCoalInfo(member, mci);
        }
        // Sibling pages of a merged run on *this* chiplet de-coalesce
        // entirely (they are the same order position).
        if (ci.merged) {
            for (Vpn member : res.stale_vpns) {
                auto mpte = pt.walk(member);
                if (mpte && mpte->coalInfo().merged &&
                    mpte->coalInfo().interOrder == ci.interOrder) {
                    pt.updateCoalInfo(member, CoalInfo{});
                }
            }
        }
    }

    allocators_[owner]->release(map_.localOf(old_pfn));
    pt.map(vpn, res.new_pfn, CoalInfo{});
    ++migrations_;

    // Deduplicate stale list (vpn appears once).
    std::sort(res.stale_vpns.begin(), res.stale_vpns.end());
    res.stale_vpns.erase(
        std::unique(res.stale_vpns.begin(), res.stale_vpns.end()),
        res.stale_vpns.end());

    // Excluding the migrated position must leave every surviving
    // member's group arithmetic intact.
    BARRE_AUDIT(
        if (const PecEntry *e = findPecEntry(pid, vpn)) {
            for (Vpn stale : res.stale_vpns)
                pec::auditGroup(*e, pt, stale, map_);
        });
    return res;
}

std::uint64_t
GpuDriver::processExit(ProcessId pid)
{
    domainCheck("processExit");
    auto it = page_tables_.find(pid);
    barre_assert(it != page_tables_.end(),
                 "processExit for unknown process %u", pid);
    PageTable &pt = *it->second;

    std::uint64_t freed = 0;
    for (const PecEntry &layout : all_layouts_) {
        if (layout.pid != pid)
            continue;
        for (Vpn vpn = layout.start_vpn; vpn <= layout.end_vpn; ++vpn) {
            auto pte = pt.walk(vpn);
            if (!pte)
                continue; // demand paging: reserved but never touched
            ChipletId owner = map_.chipletOf(pte->pfn());
            bool released =
                allocators_[owner]->release(map_.localOf(pte->pfn()));
            barre_assert(released,
                         "frame double-free tearing down process %u",
                         pid);
            bool unmapped = pt.unmap(vpn);
            barre_assert(unmapped, "walked PTE refused to unmap");
            ++freed;
        }
    }
    barre_assert(pt.mappedPages() == 0,
                 "process %u exited with %llu pages outside its "
                 "recorded buffers",
                 pid,
                 static_cast<unsigned long long>(pt.mappedPages()));

    std::erase_if(all_layouts_,
                  [pid](const PecEntry &e) { return e.pid == pid; });
    std::erase_if(pec_entries_,
                  [pid](const PecEntry &e) { return e.pid == pid; });
    page_tables_.erase(it);
    vpn_bump_.erase(pid);
    ++exits_;
    return freed;
}

} // namespace barre
