/**
 * @file
 * InlineFn: the allocation-free move-only callback used on the event
 * hot path. Covers inline vs heap storage, move semantics, argument
 * forwarding, and destruction of captured state.
 */

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "sim/inline_fn.hh"

namespace barre
{
namespace
{

TEST(InlineFn, DefaultConstructedIsEmpty)
{
    InlineFn<void()> fn;
    EXPECT_FALSE(static_cast<bool>(fn));
}

TEST(InlineFn, InvokesSmallLambdaInline)
{
    int hits = 0;
    InlineFn<void()> fn([&hits]() { ++hits; });
    ASSERT_TRUE(static_cast<bool>(fn));
    fn();
    fn();
    EXPECT_EQ(hits, 2);
}

TEST(InlineFn, SmallCapturesAreStoredInline)
{
    struct Small
    {
        void *a;
        void *b;
        std::uint64_t c;
        void operator()() const {}
    };
    static_assert(InlineFn<void()>::fitsInline<Small>(),
                  "three-word captures must not allocate");
}

TEST(InlineFn, InlineOnlyPassesASlotCaptureThrough)
{
    // The hot-path shape: an owner pointer and a slot index.
    struct Owner
    {
        std::vector<int> slots{0, 0, 0};
    } owner;
    const std::uint32_t slot = 2;
    auto k = inlineOnly([o = &owner, slot]() { ++o->slots[slot]; });
    static_assert(InlineFn<void()>::fitsInline<decltype(k)>());
    InlineFn<void()> fn(std::move(k));
    fn();
    EXPECT_EQ(owner.slots[2], 1);

    // What inlineOnly() refuses: a continuation that carries another
    // InlineFn (the pattern it replaces) overflows the buffer.
    struct Nested
    {
        InlineFn<void()> done;
        void operator()() const {}
    };
    static_assert(!fitsInlineBuffer<Nested>());
    static_assert(fitsInlineBuffer<decltype(k)>());
}

TEST(InlineFn, ForwardsArgumentsAndReturnsValues)
{
    InlineFn<int(int, int)> add([](int a, int b) { return a + b; });
    EXPECT_EQ(add(2, 3), 5);

    InlineFn<std::string(const std::string &)> echo(
        [](const std::string &s) { return s + s; });
    EXPECT_EQ(echo("ab"), "abab");
}

TEST(InlineFn, MoveTransfersOwnership)
{
    int hits = 0;
    InlineFn<void()> a([&hits]() { ++hits; });
    InlineFn<void()> b(std::move(a));
    EXPECT_FALSE(static_cast<bool>(a));
    ASSERT_TRUE(static_cast<bool>(b));
    b();
    EXPECT_EQ(hits, 1);

    InlineFn<void()> c;
    c = std::move(b);
    EXPECT_FALSE(static_cast<bool>(b));
    c();
    EXPECT_EQ(hits, 2);
}

TEST(InlineFn, MoveAssignDestroysPreviousTarget)
{
    auto token = std::make_shared<int>(7);
    std::weak_ptr<int> watch = token;
    InlineFn<void()> fn([token]() {});
    token.reset();
    EXPECT_FALSE(watch.expired());
    fn = InlineFn<void()>([]() {});
    EXPECT_TRUE(watch.expired());
}

TEST(InlineFn, DestructorReleasesCapturedState)
{
    auto token = std::make_shared<int>(1);
    std::weak_ptr<int> watch = token;
    {
        InlineFn<void()> fn([token]() {});
        token.reset();
        EXPECT_FALSE(watch.expired());
    }
    EXPECT_TRUE(watch.expired());
}

TEST(InlineFn, MoveOnlyCapturesWork)
{
    auto p = std::make_unique<int>(41);
    InlineFn<int()> fn([p = std::move(p)]() { return *p + 1; });
    InlineFn<int()> moved(std::move(fn));
    EXPECT_EQ(moved(), 42);
}

TEST(InlineFn, LargeCallablesSpillToTheHeap)
{
    // A capture bigger than the inline buffer still works (parked
    // behind one allocation at construction; calls stay direct).
    struct Big
    {
        unsigned char pad[2 * inline_fn_capacity];
        int value;
        int operator()() const { return value; }
    };
    static_assert(!InlineFn<int()>::fitsInline<Big>());
    Big big{};
    big.value = 9;
    InlineFn<int()> fn(big);
    EXPECT_EQ(fn(), 9);
    InlineFn<int()> moved(std::move(fn));
    EXPECT_EQ(moved(), 9);
}

TEST(InlineFn, HeapModelDestroysCapturedState)
{
    struct Big
    {
        unsigned char pad[2 * inline_fn_capacity];
        std::shared_ptr<int> token;
        void operator()() const {}
    };
    auto token = std::make_shared<int>(3);
    std::weak_ptr<int> watch = token;
    {
        Big big{};
        big.token = std::move(token);
        InlineFn<void()> fn(std::move(big));
        EXPECT_FALSE(watch.expired());
    }
    EXPECT_TRUE(watch.expired());
}

TEST(InlineFn, InvokingEmptyFnPanics)
{
    InlineFn<void()> fn;
    EXPECT_THROW(fn(), std::logic_error);
}

TEST(InlineFn, MutableLambdasKeepStateAcrossCalls)
{
    InlineFn<int()> counter([n = 0]() mutable { return ++n; });
    EXPECT_EQ(counter(), 1);
    EXPECT_EQ(counter(), 2);
    EXPECT_EQ(counter(), 3);
}

TEST(InlineFn, VectorOfCallbacksRelocatesSafely)
{
    // MSHR waiter lists are std::vector<InlineFn>; growth must
    // relocate inline targets without invoking or corrupting them.
    std::vector<InlineFn<int()>> fns;
    for (int i = 0; i < 64; ++i)
        fns.emplace_back([i]() { return i; });
    int sum = 0;
    for (auto &fn : fns)
        sum += fn();
    EXPECT_EQ(sum, 64 * 63 / 2);
}

} // namespace
} // namespace barre
