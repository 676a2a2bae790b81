#include "common/interval_set.hpp"

#include <algorithm>
#include <iterator>

namespace mmtp {

std::size_t interval_set::first_ending_at_or_after(std::uint64_t value) const
{
    const auto it = std::partition_point(runs_.begin(), runs_.end(),
                                         [value](const run& r) { return r.second < value; });
    return static_cast<std::size_t>(it - runs_.begin());
}

std::size_t interval_set::first_starting_after(std::uint64_t value) const
{
    const auto it = std::partition_point(runs_.begin(), runs_.end(),
                                         [value](const run& r) { return r.first <= value; });
    return static_cast<std::size_t>(it - runs_.begin());
}

void interval_set::insert(std::uint64_t start, std::uint64_t end)
{
    if (start >= end) return;
    // Runs [i, j) overlap or touch [start, end): run i is the first that
    // ends at or after `start`, run j the first that starts after `end`.
    const std::size_t i = first_ending_at_or_after(start);
    std::size_t j = i;
    while (j < runs_.size() && runs_[j].first <= end) ++j;
    if (i == j) {
        runs_.insert(runs_.begin() + static_cast<std::ptrdiff_t>(i), run{start, end});
        return;
    }
    // Merge into run i in place and drop the rest it swallowed.
    run& merged = runs_[i];
    if (start < merged.first) merged.first = start;
    merged.second = std::max(end, runs_[j - 1].second);
    runs_.erase(runs_.begin() + static_cast<std::ptrdiff_t>(i + 1),
                runs_.begin() + static_cast<std::ptrdiff_t>(j));
}

void interval_set::erase(std::uint64_t start, std::uint64_t end)
{
    if (start >= end) return;
    // Runs [i, j) intersect [start, end).
    const std::size_t i = first_ending_at_or_after(start + 1);
    std::size_t j = i;
    while (j < runs_.size() && runs_[j].first < end) ++j;
    if (i == j) return;
    const run left{runs_[i].first, start};
    const run right{end, runs_[j - 1].second};
    const bool keep_left = left.first < left.second;
    const bool keep_right = right.first < right.second;
    auto at = runs_.erase(runs_.begin() + static_cast<std::ptrdiff_t>(i),
                          runs_.begin() + static_cast<std::ptrdiff_t>(j));
    if (keep_right) at = runs_.insert(at, right);
    if (keep_left) runs_.insert(at, left);
}

bool interval_set::contains(std::uint64_t value) const
{
    const std::size_t i = first_starting_after(value);
    return i != 0 && runs_[i - 1].second > value;
}

std::uint64_t interval_set::next_missing(std::uint64_t from) const
{
    const std::size_t i = first_starting_after(from);
    if (i == 0) return from;
    const auto e = runs_[i - 1].second;
    return e > from ? e : from;
}

std::uint64_t interval_set::next_start_after(std::uint64_t value, std::uint64_t none) const
{
    const std::size_t i = first_starting_after(value);
    return i < runs_.size() ? runs_[i].first : none;
}

std::vector<interval_set::run> interval_set::gaps(std::uint64_t start,
                                                  std::uint64_t end) const
{
    std::vector<run> out;
    if (start >= end) return out;
    std::uint64_t cursor = start;
    for (std::size_t k = first_ending_at_or_after(start + 1); k < runs_.size(); ++k) {
        const auto [s, e] = runs_[k];
        if (s >= end) break;
        if (s > cursor) out.push_back({cursor, s});
        if (e > cursor) cursor = e;
        if (cursor >= end) break;
    }
    if (cursor < end) out.push_back({cursor, end});
    return out;
}

std::uint64_t interval_set::covered() const
{
    std::uint64_t total = 0;
    for (const auto& [s, e] : runs_) total += e - s;
    return total;
}

} // namespace mmtp
