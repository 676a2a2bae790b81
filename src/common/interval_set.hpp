// interval_set.hpp — ordered set of disjoint half-open [start, end)
// intervals over uint64. Used by TCP reassembly/SACK scoreboards and by
// the MMTP receiver's loss detector (gap tracking for NAKs).
//
// Stored as a sorted flat vector of runs. Runs never overlap or touch
// (touching inserts merge), so both starts and ends are ascending and
// every lookup is a binary search. The receiver's common case — the next
// in-order datagram extends the last run — updates that run in place, so
// a stream that is received in order never allocates.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

namespace mmtp {

class interval_set {
public:
    /// One run [first, second).
    using run = std::pair<std::uint64_t, std::uint64_t>;

    /// Inserts [start, end), merging with neighbours. No-op if start>=end.
    void insert(std::uint64_t start, std::uint64_t end);

    /// Removes [start, end) from the set.
    void erase(std::uint64_t start, std::uint64_t end);

    /// True if `value` lies inside some interval.
    bool contains(std::uint64_t value) const;

    /// End of the interval starting at or covering `from`, i.e. the first
    /// missing value >= from.
    std::uint64_t next_missing(std::uint64_t from) const;

    /// Start of the first interval that begins after `value`, or
    /// `none` when there is no such interval.
    std::uint64_t next_start_after(std::uint64_t value, std::uint64_t none) const;

    /// Gaps within [start, end) not covered by the set.
    std::vector<run> gaps(std::uint64_t start, std::uint64_t end) const;

    /// Total covered length.
    std::uint64_t covered() const;

    bool empty() const { return runs_.empty(); }
    std::size_t interval_count() const { return runs_.size(); }
    void clear() { runs_.clear(); }

    /// Iteration over intervals (start, end), ascending.
    std::span<const run> intervals() const { return runs_; }

private:
    /// Index of the first run whose end is >= value (ends ascend).
    std::size_t first_ending_at_or_after(std::uint64_t value) const;
    /// Index of the first run whose start is > value (starts ascend).
    std::size_t first_starting_after(std::uint64_t value) const;

    std::vector<run> runs_;
};

} // namespace mmtp
