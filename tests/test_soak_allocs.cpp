// Allocation gate for the per-message protocol path: the checked-in
// soak scenario (all five experiments, mode rewrites at every segment
// boundary, DTN buffering with an archive-backed store, in-order
// delivery) is run through dsl_driver at two traffic sizes, and the
// heap allocations its run phase makes per *extra* delivered message
// must stay at or below one. Setup and reporting are outside the
// counted window, so the gate measures only what grows with traffic.
// A second, tighter bound (0.25) sits just above today's figure (about
// -0.05): every per-message site the path used to have cost 0.97 or
// more, so bringing any single one of them back fails it.
#include "scenario/dsl.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <new>
#include <sstream>
#include <string>

#ifndef MMTP_SCENARIO_DIR
#error "MMTP_SCENARIO_DIR must point at the checked-in scenarios/ directory"
#endif

// Every global operator new in this binary is counted.
static std::atomic<std::uint64_t> g_allocs{0};

void* operator new(std::size_t n)
{
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
    throw std::bad_alloc();
}

void* operator new[](std::size_t n)
{
    return operator new(n);
}

// GCC pairs the replaced operator new with free() below and warns.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace {

std::string soak_text()
{
    std::ifstream in(std::string(MMTP_SCENARIO_DIR) + "/soak.scenario");
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

struct run_count {
    std::uint64_t allocs{0};
    std::uint64_t delivered{0};
    bool whole{false};
};

/// Runs the soak scenario text with `messages_per_stream` replaced.
run_count run_soak(std::uint64_t messages_per_stream)
{
    std::string text = soak_text();
    const std::string key = "messages_per_stream = 500";
    const auto at = text.find(key);
    EXPECT_NE(at, std::string::npos) << "soak.scenario no longer sets " << key;
    if (at == std::string::npos) return {};
    text.replace(at, key.size(),
                 "messages_per_stream = " + std::to_string(messages_per_stream));

    auto parsed = mmtp::scenario::parse_scenario(text);
    EXPECT_TRUE(parsed.spec.has_value()) << parsed.error.to_string();
    if (!parsed.spec) return {};
    mmtp::scenario::dsl_driver d(std::move(*parsed.spec));
    d.prepare();
    const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
    d.context().run();
    run_count out;
    out.allocs = g_allocs.load(std::memory_order_relaxed) - before;
    const auto acc = d.accept();
    out.delivered = acc.delivered;
    out.whole = acc.whole;
    return out;
}

} // namespace

TEST(soak_allocs, marginal_allocations_per_delivered_message_at_most_one)
{
    const run_count small = run_soak(500);
    const run_count large = run_soak(1000);
    ASSERT_TRUE(small.whole);
    ASSERT_TRUE(large.whole);
    ASSERT_GT(large.delivered, small.delivered);
    const double extra_allocs = static_cast<double>(large.allocs)
                                - static_cast<double>(small.allocs);
    const double per_msg = extra_allocs / static_cast<double>(large.delivered - small.delivered);
    RecordProperty("marginal_allocs_per_msg", std::to_string(per_msg));
    std::printf("soak: %llu allocs / %llu msgs at 500, %llu / %llu at 1000: "
                "%.4f marginal allocs per delivered message\n",
                static_cast<unsigned long long>(small.allocs),
                static_cast<unsigned long long>(small.delivered),
                static_cast<unsigned long long>(large.allocs),
                static_cast<unsigned long long>(large.delivered), per_msg);
    EXPECT_LE(per_msg, 1.0);
    EXPECT_LE(per_msg, 0.25) << "a per-message allocation site is back on the soak path";
}
