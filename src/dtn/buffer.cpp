#include "dtn/buffer.hpp"

namespace mmtp::dtn {

std::size_t retransmission_buffer::lower_bound(const stream& s, std::uint64_t sequence)
{
    const std::size_t n = s.size();
    if (n == 0 || sequence <= s.front().sequence) return 0;
    if (sequence > s.back().sequence) return n;
    // Dense run: the entry sits `sequence - front` places in.
    const std::uint64_t offset = sequence - s.front().sequence;
    if (offset < n && s.at(offset).sequence == sequence) return offset;
    std::size_t lo = 0;
    std::size_t hi = n;
    while (lo < hi) {
        const std::size_t mid = lo + (hi - lo) / 2;
        if (s.at(mid).sequence < sequence)
            lo = mid + 1;
        else
            hi = mid;
    }
    return lo;
}

std::pair<retransmission_buffer::streams::iterator, std::size_t>
retransmission_buffer::find(const key& k)
{
    auto it = streams_.find({k.experiment, k.epoch});
    if (it == streams_.end()) return {it, 0};
    const std::size_t i = lower_bound(it->second, k.sequence);
    if (i == it->second.size() || it->second.at(i).sequence != k.sequence)
        return {streams_.end(), 0};
    return {it, i};
}

void retransmission_buffer::store(buffered_datagram d, sim_time now)
{
    const key k{d.experiment, d.epoch, d.sequence};
    stream& s = streams_[{k.experiment, k.epoch}];
    const std::size_t i = lower_bound(s, k.sequence);
    const bool replace = i < s.size() && s.at(i).sequence == k.sequence;
    // A replaced entry's old FIFO slot stays behind and will evict the
    // replacement when it reaches the front.
    if (replace) bytes_ -= s.at(i).size_bytes;
    d.stored_at = now;
    bytes_ += d.size_bytes;
    stats_.stored++;
    if (bytes_ > stats_.peak_bytes) stats_.peak_bytes = bytes_;
    if (replace) {
        s.at(i) = std::move(d);
    } else {
        s.insert(i, std::move(d));
        entries_++;
    }
    fifo_.push_back(k);
    evict(now);
}

void retransmission_buffer::evict(sim_time now)
{
    // Retention-based eviction from the front (oldest first).
    while (!fifo_.empty()) {
        const auto [it, i] = find(fifo_.front());
        if (it == streams_.end()) {
            fifo_.erase(0);
            continue; // stale: evicted through an older slot of its key
        }
        const buffered_datagram& d = it->second.at(i);
        const bool too_old = (now - d.stored_at).ns > cfg_.retention.ns;
        const bool over_capacity = bytes_ > cfg_.capacity_bytes;
        if (!too_old && !over_capacity) break;
        bytes_ -= d.size_bytes;
        if (too_old)
            stats_.evicted_retention++;
        else
            stats_.evicted_capacity++;
        it->second.erase(i);
        entries_--;
        if (it->second.empty()) streams_.erase(it);
        fifo_.erase(0);
    }
}

std::optional<buffered_datagram> retransmission_buffer::fetch(wire::experiment_id experiment,
                                                              std::uint16_t epoch,
                                                              std::uint64_t sequence,
                                                              sim_time now)
{
    evict(now);
    const auto [it, i] = find(key{experiment, epoch, sequence});
    if (it == streams_.end()) {
        stats_.misses++;
        return std::nullopt;
    }
    stats_.hits++;
    return it->second.at(i);
}

std::vector<buffered_datagram> retransmission_buffer::fetch_range(
    wire::experiment_id experiment, std::uint16_t epoch, std::uint64_t first,
    std::uint64_t last, sim_time now)
{
    evict(now);
    std::vector<buffered_datagram> out;
    if (auto it = streams_.find({experiment, epoch}); it != streams_.end()) {
        const stream& s = it->second;
        for (std::size_t i = lower_bound(s, first); i < s.size() && s.at(i).sequence <= last;
             ++i) {
            stats_.hits++;
            out.push_back(s.at(i));
        }
    }
    if (out.empty()) stats_.misses++;
    return out;
}

} // namespace mmtp::dtn
