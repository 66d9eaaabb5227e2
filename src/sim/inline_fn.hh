/**
 * @file
 * A move-only type-erased callable with small-buffer optimisation.
 *
 * InlineFn<R(Args...)> replaces std::function on the event hot path:
 * a callable of up to six pointers of captured state is stored inline
 * in a 48-byte buffer, so scheduling it performs no heap allocation.
 * Larger callables fall back to the heap. That is for cold paths only:
 * a hot-path continuation parks its state (another InlineFn, a response)
 * in a slot table its owner keeps and captures the slot index, and
 * passes through inlineOnly(), which refuses at compile time a callable
 * that would not fit. A closure built in one event domain may die in
 * another, so no per-thread pool can stand in for that.
 *
 * Differences from std::function, on purpose:
 *   - move-only: events are consumed exactly once, and banning copies
 *     lets callers capture move-only state (other InlineFns, vectors)
 *     without the hidden copy std::function would make;
 *   - operator() keeps std::function's shallow-const semantics (the
 *     erased callable may mutate its captures) without forcing every
 *     lambda to be declared mutable.
 */

#pragma once

#include <cstddef>
#include <memory>
#include <type_traits>
#include <utility>

#include "sim/logging.hh"

namespace barre
{

/** Default inline capacity: room for ~6 pointers of captured state. */
inline constexpr std::size_t inline_fn_capacity = 48;

/** True when callables of type F fit a @p Cap -byte inline buffer. */
template <typename F, std::size_t Cap = inline_fn_capacity>
constexpr bool
fitsInlineBuffer()
{
    using Fn = std::decay_t<F>;
    return sizeof(Fn) <= Cap && alignof(Fn) <= alignof(std::max_align_t) &&
           std::is_nothrow_move_constructible_v<Fn>;
}

/**
 * Pass @p fn through unchanged, refusing at compile time a callable
 * that would take InlineFn's heap fallback: hot-path continuations
 * wrap themselves in it.
 */
template <typename F>
constexpr std::decay_t<F>
inlineOnly(F &&fn)
{
    static_assert(fitsInlineBuffer<F>(),
                  "hot-path continuation exceeds InlineFn's inline "
                  "buffer; park its state in a slot and capture the index");
    return std::forward<F>(fn);
}

template <typename Sig, std::size_t Cap = inline_fn_capacity>
class InlineFn;

template <typename R, typename... Args, std::size_t Cap>
class InlineFn<R(Args...), Cap>
{
  public:
    InlineFn() noexcept = default;
    InlineFn(std::nullptr_t) noexcept {}

    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, InlineFn> &&
                  std::is_invocable_r_v<R, std::decay_t<F> &, Args...>>>
    InlineFn(F &&fn)
    {
        using Fn = std::decay_t<F>;
        void *slot = static_cast<void *>(buf_);
        if constexpr (fitsInline<Fn>()) {
            ::new (slot) Fn(std::forward<F>(fn)); // lint-allow:naked-new
            vt_ = &inline_vtable<Fn>;
        } else {
            // Erased ownership: the pointer parked in buf_ is reclaimed
            // by HeapModel::destroy below.
            ::new (slot) Fn *( // lint-allow:naked-new
                std::make_unique<Fn>(std::forward<F>(fn)).release());
            vt_ = &heap_vtable<Fn>;
        }
    }

    InlineFn(InlineFn &&other) noexcept
    {
        if (other.vt_) {
            other.vt_->relocate(buf_, other.buf_);
            vt_ = std::exchange(other.vt_, nullptr);
        }
    }

    InlineFn &
    operator=(InlineFn &&other) noexcept
    {
        if (this != &other) {
            reset();
            if (other.vt_) {
                other.vt_->relocate(buf_, other.buf_);
                vt_ = std::exchange(other.vt_, nullptr);
            }
        }
        return *this;
    }

    InlineFn(const InlineFn &) = delete;
    InlineFn &operator=(const InlineFn &) = delete;

    ~InlineFn() { reset(); }

    /** True when a callable is held. */
    explicit operator bool() const noexcept { return vt_ != nullptr; }

    /**
     * Invoke the stored callable (shallow const: captures may mutate).
     * @pre *this holds a callable.
     */
    R
    operator()(Args... args) const
    {
        barre_assert(vt_ != nullptr, "invoking an empty InlineFn");
        return vt_->invoke(buf_, std::forward<Args>(args)...);
    }

    void
    reset() noexcept
    {
        if (vt_) {
            vt_->destroy(buf_);
            vt_ = nullptr;
        }
    }

    /** True when callables of type F avoid the heap fallback. */
    template <typename F>
    static constexpr bool
    fitsInline()
    {
        return fitsInlineBuffer<F, Cap>();
    }

  private:
    struct VTable
    {
        R (*invoke)(void *self, Args &&...args);
        /** Move-construct into @p dst from @p src, then destroy src. */
        void (*relocate)(void *dst, void *src) noexcept;
        void (*destroy)(void *self) noexcept;
    };

    template <typename Fn>
    struct InlineModel
    {
        static R
        invoke(void *self, Args &&...args)
        {
            return (*static_cast<Fn *>(self))(std::forward<Args>(args)...);
        }

        static void
        relocate(void *dst, void *src) noexcept
        {
            Fn *from = static_cast<Fn *>(src);
            ::new (dst) Fn(std::move(*from)); // lint-allow:naked-new
            from->~Fn();
        }

        static void
        destroy(void *self) noexcept
        {
            static_cast<Fn *>(self)->~Fn();
        }
    };

    template <typename Fn>
    struct HeapModel
    {
        static Fn *&ptr(void *self) { return *static_cast<Fn **>(self); }

        static R
        invoke(void *self, Args &&...args)
        {
            return (*ptr(self))(std::forward<Args>(args)...);
        }

        static void
        relocate(void *dst, void *src) noexcept
        {
            ::new (dst) Fn *(ptr(src)); // lint-allow:naked-new
        }

        static void
        destroy(void *self) noexcept
        {
            std::unique_ptr<Fn> owned(ptr(self));
        }
    };

    template <typename Fn>
    static constexpr VTable inline_vtable{&InlineModel<Fn>::invoke,
                                          &InlineModel<Fn>::relocate,
                                          &InlineModel<Fn>::destroy};

    template <typename Fn>
    static constexpr VTable heap_vtable{&HeapModel<Fn>::invoke,
                                        &HeapModel<Fn>::relocate,
                                        &HeapModel<Fn>::destroy};

    alignas(std::max_align_t) mutable unsigned char buf_[Cap];
    const VTable *vt_ = nullptr;
};

} // namespace barre
