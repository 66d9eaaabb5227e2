/**
 * @file
 * Per-process 4-level radix page table (x86-64 shaped).
 *
 * The table is functionally real: map/unmap install PTEs in radix nodes and
 * walk() traverses four levels, counting node touches so page-walk locality
 * can be reported. Walk *timing* is applied by the IOMMU's page table
 * walkers (the paper configures 500-cycle walks), not here.
 *
 * One writer (the host: driver mapping, demand faults, migration) and
 * any number of concurrent walkers (chiplet-side translation checks in
 * a partitioned run) may use a table at once. Child pointers are
 * published with release and followed with acquire, so a walker that
 * reaches a node sees it fully built; PTE words are loaded and stored
 * atomically (relaxed), so a walk reads a whole entry, old or new.
 * Nodes are never freed before the table is.
 */

#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "mem/pte.hh"
#include "mem/types.hh"
#include "sim/domain_guard.hh"
#include "sim/stats.hh"

namespace barre
{

// domain-owner:host — the driver installs/removes mappings; walk() is
// the sanctioned concurrent read path (see the file comment).
class PageTable : public DomainOwned
{
  public:
    static constexpr int levels = 4;
    static constexpr int bits_per_level = 9;
    static constexpr int entries_per_node = 1 << bits_per_level;

    explicit PageTable(ProcessId pid = 0) : pid_(pid) {}

    ProcessId pid() const { return pid_; }

    /**
     * Install a translation. Overwrites any existing mapping for @p vpn.
     */
    void map(Vpn vpn, Pfn pfn, const CoalInfo &ci = {});

    /** Remove a translation. @return true if a mapping existed. */
    bool unmap(Vpn vpn);

    /**
     * Walk the radix tree.
     * @return the PTE if present, nullopt on any non-present level.
     */
    std::optional<Pte> walk(Vpn vpn) const;

    /**
     * Update the coalescing info of an existing mapping (used when a page
     * leaves its group, e.g. on migration). @return false if unmapped.
     */
    bool updateCoalInfo(Vpn vpn, const CoalInfo &ci);

    /** Number of installed leaf translations. */
    std::uint64_t mappedPages() const { return mapped_; }

    /** Radix nodes touched by all walks so far (4 per successful walk). */
    std::uint64_t
    nodeAccesses() const
    {
        return node_accesses_.load(std::memory_order_relaxed);
    }

    /** Total radix nodes allocated (tree footprint). */
    std::uint64_t nodeCount() const { return nodes_.size(); }

  private:
    struct Node
    {
        // Interior levels use children; the leaf level uses ptes (raw
        // Pte words). Both are read by concurrent walkers.
        std::array<std::atomic<Node *>, entries_per_node> children{};
        std::array<std::atomic<std::uint64_t>, entries_per_node> ptes{};
    };

    static int
    indexAt(Vpn vpn, int level)
    {
        // level 0 = leaf (PT), level 3 = root (PML4).
        return static_cast<int>((vpn >> (bits_per_level * level)) &
                                (entries_per_node - 1));
    }

    /** Allocate a node and publish it in @p slot. */
    Node *install(std::atomic<Node *> &slot);
    Node *ensurePath(Vpn vpn);
    const Node *findLeafNode(Vpn vpn) const;
    /** The leaf PTE word of @p vpn, or nullptr if its path is absent. */
    std::atomic<std::uint64_t> *leafWord(Vpn vpn);

    ProcessId pid_;
    std::atomic<Node *> root_{nullptr};
    /** Owns every node; walkers only follow the atomic pointers. */
    std::vector<std::unique_ptr<Node>> nodes_;
    std::uint64_t mapped_ = 0;
    // Bumped by concurrent walkers; increments commute, so the total
    // stays deterministic.
    mutable std::atomic<std::uint64_t> node_accesses_{0};
};

} // namespace barre

