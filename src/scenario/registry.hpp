// registry.hpp — the one table of topologies.
//
// Six topology presets run through generic code: the DSL parses and
// renders them, the dsl_driver runs them, the campaign sweeps their
// axes. None of that code names a topology. It looks up the topology's
// row, and the row says everything generic code needs: how to build the
// driver, which DSL keys the topology has, and where its run knobs and
// campaign axes live inside a scenario_spec. Adding a topology is one
// new row (plus its config member and keyspace binder).
//
// The table is defined in dsl.cpp, beside the keyspace binders it
// points at.
#pragma once

#include "scenario/dsl.hpp"

#include <memory>
#include <string>
#include <vector>

namespace mmtp::scenario::registry {

/// Pointers into the active topology's config inside one scenario_spec:
/// the run knobs every topology has (seed, link burst) and those only
/// some have, null where the topology lacks them.
struct knobs {
    std::uint64_t* seed{nullptr};
    std::uint32_t* link_burst{nullptr};
    /// The shard count; set only on the partitioned topologies.
    std::uint32_t* shards{nullptr};
    /// Campaign axes the topology sweeps.
    control::mode_preset* policy{nullptr};
    bool* trace{nullptr};
    bool* persist{nullptr};
};

/// True when `name` names a topology.
bool known(const std::string& name);

/// The topology names, sorted.
std::vector<std::string> names();

/// Builds the concrete driver for spec.topology, configured from the
/// spec. Returns nullptr for an unknown topology (callers that parsed
/// the spec through the DSL never see that — the parser fails closed).
std::unique_ptr<driver> make(const scenario_spec& spec);

/// The knobs of spec.topology in `spec` (all null when unknown).
knobs knobs_of(scenario_spec& spec);

} // namespace mmtp::scenario::registry
