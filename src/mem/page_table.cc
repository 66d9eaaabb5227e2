#include "mem/page_table.hh"

namespace barre
{

PageTable::Node *
PageTable::install(std::atomic<Node *> &slot)
{
    nodes_.push_back(std::make_unique<Node>());
    Node *node = nodes_.back().get();
    slot.store(node, std::memory_order_release);
    return node;
}

PageTable::Node *
PageTable::ensurePath(Vpn vpn)
{
    // Only the writer installs, so its own relaxed reads are current.
    Node *node = root_.load(std::memory_order_relaxed);
    if (!node)
        node = install(root_);
    for (int level = levels - 1; level > 0; --level) {
        std::atomic<Node *> &slot = node->children[indexAt(vpn, level)];
        Node *child = slot.load(std::memory_order_relaxed);
        node = child ? child : install(slot);
    }
    return node;
}

const PageTable::Node *
PageTable::findLeafNode(Vpn vpn) const
{
    const Node *node = root_.load(std::memory_order_acquire);
    for (int level = levels - 1; level > 0 && node; --level) {
        node_accesses_.fetch_add(1, std::memory_order_relaxed);
        node = node->children[indexAt(vpn, level)].load(
            std::memory_order_acquire);
    }
    if (node)
        node_accesses_.fetch_add(1, std::memory_order_relaxed);
    return node;
}

std::atomic<std::uint64_t> *
PageTable::leafWord(Vpn vpn)
{
    if (!findLeafNode(vpn))
        return nullptr;
    // Re-find mutably via ensurePath (the path exists).
    return &ensurePath(vpn)->ptes[indexAt(vpn, 0)];
}

void
PageTable::map(Vpn vpn, Pfn pfn, const CoalInfo &ci)
{
    domainCheck("map");
    std::atomic<std::uint64_t> &word = ensurePath(vpn)->ptes[indexAt(vpn, 0)];
    if (!Pte::fromRaw(word.load(std::memory_order_relaxed)).present())
        ++mapped_;
    word.store(Pte::make(pfn, ci).raw(), std::memory_order_relaxed);
}

bool
PageTable::unmap(Vpn vpn)
{
    domainCheck("unmap");
    std::atomic<std::uint64_t> *word = leafWord(vpn);
    if (!word ||
        !Pte::fromRaw(word->load(std::memory_order_relaxed)).present())
        return false;
    word->store(Pte{}.raw(), std::memory_order_relaxed);
    --mapped_;
    return true;
}

std::optional<Pte>
PageTable::walk(Vpn vpn) const
{
    const Node *leaf = findLeafNode(vpn);
    if (!leaf)
        return std::nullopt;
    const Pte pte = Pte::fromRaw(
        leaf->ptes[indexAt(vpn, 0)].load(std::memory_order_relaxed));
    if (!pte.present())
        return std::nullopt;
    return pte;
}

bool
PageTable::updateCoalInfo(Vpn vpn, const CoalInfo &ci)
{
    domainCheck("updateCoalInfo");
    std::atomic<std::uint64_t> *word = leafWord(vpn);
    if (!word)
        return false;
    Pte pte = Pte::fromRaw(word->load(std::memory_order_relaxed));
    if (!pte.present())
        return false;
    pte.setCoalInfo(ci);
    word->store(pte.raw(), std::memory_order_relaxed);
    return true;
}

} // namespace barre
