// spans.hpp — in-memory span log for the traced benchmark run.
//
// A span is one call into a layer, timed from the benchmark's side of
// the call: name, start, end, the span that caused it, and the id of
// the scenario run it belongs to. Spans stay in memory while the run
// measures and are written out once, when the benchmark ends.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace e2e {

struct span {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    int parent; // index into the log, -1 for a root span
    std::uint64_t run_id;

    double seconds() const { return static_cast<double>(end_ns - start_ns) * 1e-9; }
};

class span_log {
public:
    span_log() : origin_(std::chrono::steady_clock::now()) {}

    /// Opens a span and returns its index (its id for children).
    int begin(const char* name, int parent, std::uint64_t run_id)
    {
        spans_.push_back({name, now_ns(), 0, parent, run_id});
        return static_cast<int>(spans_.size() - 1);
    }
    void end(int index) { spans_[static_cast<std::size_t>(index)].end_ns = now_ns(); }

    const std::vector<span>& spans() const { return spans_; }

    /// `run_id,span,parent,name,start_ns,end_ns` lines. Returns false if
    /// the file cannot be written.
    bool write_csv(const std::string& path) const;

private:
    std::int64_t now_ns() const
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   std::chrono::steady_clock::now() - origin_)
            .count();
    }

    std::chrono::steady_clock::time_point origin_;
    std::vector<span> spans_;
};

} // namespace e2e
