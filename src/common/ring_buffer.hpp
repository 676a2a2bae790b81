// ring_buffer.hpp — growable FIFO over a circular array.
//
// std::deque allocates and frees a fixed-size chunk every few elements as
// a push_back/pop_front stream crosses chunk boundaries, which put a
// steady trickle of heap traffic in the link egress queues. This ring
// buffer reuses one power-of-two array: in steady state (depth below
// capacity) enqueue/dequeue never allocate. Growth doubles the array and
// unrolls the ring; elements only need to be movable.
#pragma once

#include <cstddef>
#include <memory>
#include <utility>

namespace mmtp {

template <typename T>
class ring_buffer {
    static_assert(alignof(T) <= alignof(std::max_align_t),
                  "over-aligned element types are not supported");

public:
    ring_buffer() = default;

    ring_buffer(ring_buffer&& o) noexcept
        : buf_(std::move(o.buf_)), cap_(o.cap_), head_(o.head_), size_(o.size_)
    {
        o.cap_ = o.head_ = o.size_ = 0;
    }

    ring_buffer& operator=(ring_buffer&& o) noexcept
    {
        if (this != &o) {
            destroy_all();
            buf_ = std::move(o.buf_);
            cap_ = o.cap_;
            head_ = o.head_;
            size_ = o.size_;
            o.cap_ = o.head_ = o.size_ = 0;
        }
        return *this;
    }

    ring_buffer(const ring_buffer&) = delete;
    ring_buffer& operator=(const ring_buffer&) = delete;

    ~ring_buffer() { destroy_all(); }

    bool empty() const noexcept { return size_ == 0; }
    std::size_t size() const noexcept { return size_; }
    std::size_t capacity() const noexcept { return cap_; }

    T& front() noexcept { return *slot(head_); }
    const T& front() const noexcept { return *slot(head_); }

    /// Element `i` positions behind the front (0 == front). Undefined
    /// when i >= size(). Lets queue disciplines scan for an eviction
    /// victim without draining the ring.
    T& at(std::size_t i) noexcept { return *slot((head_ + i) & (cap_ - 1)); }
    const T& at(std::size_t i) const noexcept { return *slot((head_ + i) & (cap_ - 1)); }

    T& back() noexcept { return at(size_ - 1); }
    const T& back() const noexcept { return at(size_ - 1); }

    void push_back(T&& v)
    {
        if (size_ == cap_) grow();
        ::new (static_cast<void*>(slot((head_ + size_) & (cap_ - 1)))) T(std::move(v));
        ++size_;
    }

    void push_back(const T& v)
    {
        if (size_ == cap_) grow();
        ::new (static_cast<void*>(slot((head_ + size_) & (cap_ - 1)))) T(v);
        ++size_;
    }

    /// Removes and returns the oldest element by move. Undefined when empty.
    T pop_front()
    {
        T* p = slot(head_);
        T out = std::move(*p);
        p->~T();
        head_ = (head_ + 1) & (cap_ - 1);
        --size_;
        return out;
    }

    /// Move-assigns the oldest element into `out` (one move, no
    /// temporary). Undefined when empty.
    void pop_front_into(T& out)
    {
        T* p = slot(head_);
        out = std::move(*p);
        p->~T();
        head_ = (head_ + 1) & (cap_ - 1);
        --size_;
    }

    /// Inserts `v` as element `i` (i <= size()), moving the elements
    /// from `i` on back by one: O(size() - i).
    void insert(std::size_t i, T&& v)
    {
        push_back(std::move(v));
        for (std::size_t j = size_ - 1; j > i; --j) std::swap(at(j), at(j - 1));
    }

    /// Removes element `i`: O(1) at the front, else the elements behind
    /// it move forward by one. Undefined when i >= size().
    void erase(std::size_t i)
    {
        if (i == 0) {
            slot(head_)->~T();
            head_ = (head_ + 1) & (cap_ - 1);
            --size_;
            return;
        }
        for (std::size_t j = i; j + 1 < size_; ++j) at(j) = std::move(at(j + 1));
        back().~T();
        --size_;
    }

private:
    T* slot(std::size_t i) const noexcept
    {
        return reinterpret_cast<T*>(buf_.get() + i * sizeof(T));
    }

    void grow()
    {
        const std::size_t ncap = cap_ ? cap_ * 2 : 8;
        // operator new[] aligns to max_align_t, sufficient for any T queued.
        auto nbuf = std::make_unique<unsigned char[]>(ncap * sizeof(T));
        auto* arr = reinterpret_cast<T*>(nbuf.get());
        for (std::size_t i = 0; i < size_; ++i) {
            T* src = slot((head_ + i) & (cap_ - 1));
            ::new (static_cast<void*>(arr + i)) T(std::move(*src));
            src->~T();
        }
        buf_ = std::move(nbuf);
        cap_ = ncap;
        head_ = 0;
    }

    void destroy_all()
    {
        for (std::size_t i = 0; i < size_; ++i) slot((head_ + i) & (cap_ - 1))->~T();
        size_ = 0;
    }

    std::unique_ptr<unsigned char[]> buf_;
    std::size_t cap_{0};
    std::size_t head_{0};
    std::size_t size_{0};
};

} // namespace mmtp
