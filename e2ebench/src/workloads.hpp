// workloads.hpp — the benchmark's inputs, made from the workload seed.
//
// Every input is scenario text: the program under test only ever sees a
// `.scenario` file's contents, parsed by scenario::parse_scenario.
//
//   soak          scenarios/soak.scenario at messages_per_stream = 5000
//                 (100k messages), seed = workload seed, shards = 1
//   soak-sharded  the same text plus `[engine] shards = 3`
//   pilot         scenarios/pilot.scenario as written, one input per
//                 consecutive scenario seed
//   campaign      render_scenario(campaign::generate(s)), one cell each,
//                 for generator seeds s walked upward from
//                 workload_seed + 1, keeping a fixed number of specs per
//                 class (campaign_round)
//
// pilot runs scenario seeds workload_seed + 1 .. workload_seed + batch.
// The same workload seed always yields the same inputs; nearby workload
// seeds share most of them, as `campaign_runner --random N --seed S`
// runs for nearby S do.
//
// Why the campaign is stratified: generate() picks the topology and the
// shard count at random, and a sharded soak costs a hundred light specs.
// Plain consecutive seeds gave batch throughputs that differed by 2x
// between workload seeds. Keeping the generator's own class mix fixed
// per batch leaves only the sizes inside each class to vary.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace mmtp::scenario {
struct scenario_spec;
}

namespace e2e {

struct input {
    std::string label; // e.g. "pilot seed 9"
    std::string text;  // scenario file contents
};

struct workload {
    std::string name;
    std::vector<input> inputs;
    /// soak-sharded: the shards = 1 text whose report and metrics digest
    /// its single input must equal (empty elsewhere).
    std::string reference_text;
};

/// Soak messages per stream (5 experiments x 4 slices x 5000 = 100k).
constexpr std::uint64_t soak_messages_per_stream = 5000;
/// Shards of soak-sharded: one per soak domain.
constexpr std::uint32_t soak_sharded_shards = 3;
/// Inputs per batch for the seed-batched workloads.
constexpr std::uint64_t pilot_batch = 80;
/// One round of campaign classes: the generator's topology mix (pilot,
/// today and overload 1/8 each, chaos and shapeshift 2/8, soak 1/8) with
/// chaos and soak spread evenly over their shard counts {1, 2, 3, 4}.
inline const std::vector<std::pair<std::string, std::uint64_t>> campaign_round{
    {"pilot", 4},   {"today", 4},   {"overload", 4}, {"shapeshift", 8},
    {"chaos/1", 2}, {"chaos/2", 2}, {"chaos/3", 2},  {"chaos/4", 2},
    {"soak/1", 1},  {"soak/2", 1},  {"soak/3", 1},   {"soak/4", 1},
};
constexpr std::uint64_t campaign_rounds = 3;
/// Generator seeds a campaign batch may walk before giving up.
constexpr std::uint64_t campaign_walk_limit = 100000;

/// A generated spec's class: topology, plus /shards where it shards.
std::string campaign_class(const mmtp::scenario::scenario_spec& spec);

const std::vector<std::string>& workload_names();

/// Builds a workload's inputs from its seed; `scenario_dir` holds the
/// checked-in .scenario files. Throws std::runtime_error on an unknown
/// workload or an unreadable or unexpected scenario file.
workload make_workload(const std::string& name, std::uint64_t seed,
                       const std::string& scenario_dir);

/// Replaces the value of `key` inside `[section]`; throws if the file
/// has no such line. Exposed for tests.
std::string set_key(const std::string& text, const std::string& section,
                    const std::string& key, const std::string& value);

} // namespace e2e
