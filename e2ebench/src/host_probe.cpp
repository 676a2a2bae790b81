#include "host_probe.hpp"

#include "stats.hpp"

#include <sched.h>

#include <algorithm>
#include <array>
#include <ctime>
#include <utility>

namespace e2e {

namespace {

constexpr std::size_t table_entries = std::size_t{1} << 18; // 1 MiB of u32
constexpr std::uint64_t flow_count = 20000;
constexpr int steps_per_chunk = 3000;
constexpr int timed_chunks_per_burst = 12;

double thread_cpu_s()
{
    timespec t{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &t);
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_nsec) * 1e-9;
}

std::uint64_t flow_key(std::uint64_t slot) { return slot * 0x9E3779B97F4A7C15ull; }

std::uint64_t xorshift(std::uint64_t& x)
{
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
}

} // namespace

host_probe::host_probe() : next_(table_entries)
{
    for (std::size_t i = 0; i < next_.size(); ++i) next_[i] = static_cast<std::uint32_t>(i);
    for (std::size_t i = next_.size() - 1; i > 0; --i) // Sattolo: a single cycle
        std::swap(next_[i], next_[xorshift(rng_) % i]);
    flows_.reserve(flow_count);
    for (std::uint64_t f = 0; f < flow_count; ++f) flows_[flow_key(f)] = f;
    samples_.reserve(16384); // ~80 s of sweeps without growing on the heap
    chunk();                // fills the packet pool's free lists from the heap, once
}

double host_probe::chunk()
{
    const double t0 = thread_cpu_s();
    std::uint64_t acc = 0;
    for (int i = 0; i < steps_per_chunk; ++i) {
        at_ = next_[at_];
        const std::uint64_t r = xorshift(rng_);
        const auto flow = flows_.find(flow_key(r % flow_count));
        std::pmr::vector<std::uint8_t> packet(64 + (r >> 50) % 1400, &packets_);
        for (std::size_t b = 0; b < 64; ++b)
            packet[b] = static_cast<std::uint8_t>(b ^ flow->second ^ at_);
        for (std::size_t b = 0; b < 64; ++b) acc = acc * 31 + packet[b];
    }
    sink_ ^= acc;
    return thread_cpu_s() - t0;
}

double host_probe::burst()
{
    chunk();
    std::array<double, timed_chunks_per_burst> t{};
    for (double& x : t) {
        x = chunk();
        samples_.push_back(x);
    }
    std::sort(t.begin(), t.end());
    constexpr std::size_t n = t.size();
    const double mid = n % 2 == 1 ? t[n / 2] : 0.5 * (t[n / 2 - 1] + t[n / 2]);
    return mid / nominal_s;
}

host_probe::sweep_result host_probe::sweep()
{
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    const int start = sched_getcpu();
    if (start < 0 || sched_getaffinity(0, sizeof allowed, &allowed) != 0
        || !CPU_ISSET(start, &allowed)) {
        const double s = burst();
        return {s, s};
    }
    const auto pin = [](int cpu) {
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpu, &one);
        return sched_setaffinity(0, sizeof one, &one) == 0;
    };
    double sum = 0;
    int n = 0;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (cpu == start || !CPU_ISSET(cpu, &allowed) || !pin(cpu)) continue;
        sum += burst();
        ++n;
    }
    pin(start);
    const double own = burst();
    sched_setaffinity(0, sizeof allowed, &allowed);
    return {own, (sum + own) / (n + 1)};
}

double host_probe::slowdown() const { return median(samples_) / nominal_s; }

} // namespace e2e
