// e2ebench — the end-to-end scenario benchmark.
//
//   e2ebench --workload soak|soak-sharded|pilot|campaign --seed N
//            --seconds S --trace 0|1 [--scenarios DIR] [--spans FILE]
//
// Closed loop, one process: after one untimed warm-up run of each input,
// the workload's inputs run one at a time through parse -> build -> run
// -> report, the next starting when the previous finishes, cycling over
// the batch until S seconds have passed (and at least one whole pass is
// done). Every run is checked; broken
// invariants are counted, not fatal. A determinism mismatch (same input,
// different report+metrics digest; or soak-sharded differing from its
// shards = 1 reference) exits 1 without a result.
//
// The last stdout line is the result: {"correct", "attempted", "failed",
// "metrics"}. An operation is one input of the batch: "attempted" is the
// number of inputs and "failed" the number whose runs broke an invariant.
// Both depend on the seed alone, not on how many repeats fit in S (every
// repeat must give its input's digest, so repeats cannot add failures).
//
// --trace 0 reports the end-to-end metrics, timed in process CPU time,
// each run's scaled by the host slowdown around it (host_probe.hpp);
// --trace 1 runs every input traced and untraced in turn, records spans,
// runs the layer probes and reports the per-layer metrics.
#include "alloc_hook.hpp"
#include "host_probe.hpp"
#include "probes.hpp"
#include "runner.hpp"
#include "spans.hpp"
#include "stats.hpp"
#include "workloads.hpp"

#include "scenario/dsl.hpp"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace {

using clock_type = std::chrono::steady_clock;

struct options {
    std::string workload;
    std::uint64_t seed{0};
    double seconds{10};
    bool trace{false};
    std::string scenarios{"scenarios"};
    std::string spans_out;
};

options parse_args(int argc, char** argv)
{
    options o;
    bool have_workload = false, have_seed = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc) throw std::runtime_error("missing value for " + a);
        const std::string v = argv[++i];
        if (a == "--workload") {
            o.workload = v;
            have_workload = true;
        } else if (a == "--seed") {
            o.seed = std::stoull(v);
            have_seed = true;
        } else if (a == "--seconds") {
            o.seconds = std::stod(v);
        } else if (a == "--trace") {
            if (v != "0" && v != "1") throw std::runtime_error("--trace takes 0 or 1");
            o.trace = v == "1";
        } else if (a == "--scenarios") {
            o.scenarios = v;
        } else if (a == "--spans") {
            o.spans_out = v;
        } else {
            throw std::runtime_error("unknown argument " + a);
        }
    }
    if (!have_workload || !have_seed)
        throw std::runtime_error("usage: e2ebench --workload W --seed N --seconds S "
                                 "--trace 0|1 [--scenarios DIR] [--spans FILE]");
    if (!(o.seconds > 0)) throw std::runtime_error("--seconds must be positive");
    return o;
}

double ratio(double num, double den) { return den == 0 ? 0 : num / den; }

struct metric {
    std::string name;
    double value;
    std::string unit;
};

/// Prints the result line. Only runs whose determinism checks all held
/// get here, so "correct" is always true.
void print_result(std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<metric>& metrics)
{
    std::string out = "{\"correct\": true";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        char num[64];
        std::snprintf(num, sizeof num, "%.17g", metrics[i].value);
        if (i) out += ", ";
        out += "\"" + metrics[i].name + "\": {\"value\": " + num + ", \"unit\": \""
            + metrics[i].unit + "\"}";
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
}

/// All executions of one input, in run order.
struct input_runs {
    std::vector<e2e::execution> runs;    // untraced (or all, when untraced)
    std::vector<e2e::execution> traced;  // --trace 1 only
};

/// Each input's median of `field` over its runs, in input order.
std::vector<double> input_medians(const std::vector<input_runs>& per_input, bool traced,
                                  double (*field)(const e2e::execution&))
{
    std::vector<double> medians;
    for (const auto& ir : per_input) {
        const auto& runs = traced ? ir.traced : ir.runs;
        std::vector<double> v;
        v.reserve(runs.size());
        for (const auto& ex : runs) v.push_back(field(ex));
        medians.push_back(e2e::median(std::move(v)));
    }
    return medians;
}

double sum_medians(const std::vector<input_runs>& per_input, bool traced,
                   double (*field)(const e2e::execution&))
{
    double total = 0;
    for (const double m : input_medians(per_input, traced, field)) total += m;
    return total;
}

double count_sum(const std::vector<const e2e::execution*>& first, const std::string& key)
{
    double total = 0;
    for (const auto* ex : first) total += static_cast<double>(ex->count(key));
    return total;
}

/// The traced run's per-layer metrics. Times are per pass over the
/// workload's inputs (the sum of each input's median); counts are the
/// first pass's totals, which repeat exactly for a seed.
std::vector<metric> layer_metrics(const e2e::workload& w,
                                  const std::vector<input_runs>& per_input,
                                  const std::vector<const e2e::execution*>& first,
                                  const e2e::span_log& spans, double traced_sum,
                                  double untraced_sum)
{
    using ex_t = e2e::execution;
    const auto t = [&](double (*f)(const ex_t&)) { return sum_medians(per_input, true, f); };
    const auto c = [&](const std::string& key) { return count_sum(first, key); };
    const auto f = [&](std::uint64_t ex_t::*field) {
        double total = 0;
        for (const auto* ex : first) total += static_cast<double>(ex->*field);
        return total;
    };

    const double run_s = t([](const ex_t& e) { return e.wall.run_s; });
    const double dispatch_s = t([](const ex_t& e) { return e.dispatch_s; });
    const double critical_s = t([](const ex_t& e) { return e.critical_path_s; });

    std::vector<metric> m{
        {"scenario.parse_s", t([](const ex_t& e) { return e.wall.parse_s; }), "s"},
        {"scenario.build_s", t([](const ex_t& e) { return e.wall.build_s; }), "s"},
        {"netsim.run_s", run_s, "s"},
        {"netsim.dispatch_s", dispatch_s, "s"},
        {"telemetry.report_s", t([](const ex_t& e) { return e.wall.report_s; }), "s"},
    };
    const auto class_events = [&](std::size_t k) {
        double n = 0;
        for (const auto* ex : first) n += static_cast<double>(ex->events_by_class[k]);
        return n;
    };
    for (std::size_t k = 0; k < mmtp::netsim::task_class_count; ++k)
        m.push_back({std::string("engine.events.")
                         + mmtp::netsim::task_class_name(static_cast<mmtp::netsim::task_class>(k)),
                     class_events(k), "count"});
    m.push_back({"engine.timers_cancelled", f(&ex_t::timers_cancelled), "count"});

    m.push_back({"shard.critical_path_s", critical_s, "s"});
    m.push_back({"shard.serial_s", t([](const ex_t& e) { return e.serial_s; }), "s"});
    m.push_back({"shard.barrier_wait_s", run_s - critical_s, "s"});
    m.push_back({"shard.epochs", f(&ex_t::epochs), "count"});
    m.push_back({"shard.cross_messages", f(&ex_t::cross_messages), "count"});

    m.push_back({"link.tx_packets", f(&ex_t::link_tx_packets), "count"});
    m.push_back({"link.drops", f(&ex_t::link_drops), "count"});
    m.push_back({"link.corrupted", f(&ex_t::link_corrupted), "count"});
    m.push_back({"pq.enqueued", f(&ex_t::queue_enqueued), "count"});
    m.push_back({"pq.shed", f(&ex_t::queue_shed), "count"});

    const double forwarded = c("element_forwarded");
    m.push_back({"element.forwarded", forwarded, "count"});
    m.push_back({"element.mode_transitions", c("element_mode_transitions"), "count"});
    m.push_back({"element.clones", c("element_clones"), "count"});
    m.push_back({"element.backpressure_signals", c("element_backpressure_signals"), "count"});

    const double naks = c("receiver_naks_sent");
    const double retries = c("receiver_nak_retries");
    const double recovered = c("receiver_recovered");
    m.push_back({"receiver.naks_sent", naks, "count"});
    m.push_back({"receiver.nak_retries", retries, "count"});
    m.push_back({"receiver.recovered", recovered, "count"});
    m.push_back({"receiver.duplicates", c("receiver_duplicates"), "count"});
    m.push_back({"mmtp.nak_yield", ratio(recovered, naks + retries), "ratio"});

    const double nak_requests = c("buffer_nak_requests");
    const double retransmitted = c("buffer_retransmitted");
    m.push_back({"buffer.persisted", c("buffer_persisted"), "count"});
    m.push_back({"buffer.nak_requests", nak_requests, "count"});
    m.push_back({"buffer.retransmitted", retransmitted, "count"});
    m.push_back({"dtn.serve_yield", ratio(retransmitted, nak_requests), "ratio"});

    m.push_back({"policy.reconfigs", c("policy_reconfigs|phase=committed"), "count"});
    m.push_back({"planner.flows_rerouted", c("planner_flows_rerouted"), "count"});
    double recover_ns = 0;
    for (const auto* ex : first) recover_ns += ex->sim_recover_ns;
    m.push_back({"control.sim_recover_ms", recover_ns * 1e-6, "ms"});

    m.push_back({"allocs.build", f(&ex_t::allocs_build), "count"});
    m.push_back({"allocs.run", f(&ex_t::allocs_run), "count"});

    // Layer probes on the first input's shape, priced at this pass's
    // operation counts.
    const auto parsed = mmtp::scenario::parse_scenario(w.inputs.front().text);
    const e2e::probe_result p = e2e::run_probes(e2e::shape_of(*parsed.spec), 1.0);
    const double ns = 1e-9;
    // Every link arrival is parsed by the node it reaches.
    const double arrivals =
        class_events(static_cast<std::size_t>(mmtp::netsim::task_class::link_arrival));
    const double wire_s = ns
        * (p.wire_parse_ns * arrivals + p.wire_serialize_ns * (forwarded + c("stack_sent")));
    const double pnet_s = ns * p.element_ns * (forwarded + c("element_dropped"));
    const double dtn_s = ns
        * (p.store_ns * c("buffer_relayed")
           + p.lookup_ns * (retransmitted + c("buffer_unavailable")));
    const double mmtp_s =
        ns * p.receive_ns * (c("receiver_datagrams") + c("receiver_duplicates"));
    const double engine_s = ns * p.event_ns * f(&ex_t::events);

    m.push_back({"wire.parse_ns", p.wire_parse_ns, "ns"});
    m.push_back({"wire.serialize_ns", p.wire_serialize_ns, "ns"});
    m.push_back({"wire.est_s", wire_s, "s"});
    m.push_back({"pnet.element_ns", p.element_ns, "ns"});
    m.push_back({"pnet.est_s", pnet_s, "s"});
    m.push_back({"dtn.store_ns", p.store_ns, "ns"});
    m.push_back({"dtn.lookup_ns", p.lookup_ns, "ns"});
    m.push_back({"dtn.est_s", dtn_s, "s"});
    m.push_back({"mmtp.receive_ns", p.receive_ns, "ns"});
    m.push_back({"mmtp.est_s", mmtp_s, "s"});
    m.push_back({"engine.event_ns", p.event_ns, "ns"});
    m.push_back({"engine.est_s", engine_s, "s"});
    m.push_back({"netsim.unattributed_s",
                 dispatch_s - wire_s - pnet_s - dtn_s - mmtp_s - engine_s, "s"});

    // Span accounting: how much of each scenario span its four phase
    // spans cover, and what recording spans cost against untraced runs.
    double root_s = 0, child_s = 0;
    for (const auto& sp : spans.spans()) (sp.parent < 0 ? root_s : child_s) += sp.seconds();
    m.push_back({"trace.uncovered_share", 1.0 - ratio(child_s, root_s), "share"});
    m.push_back({"trace.overhead_share", ratio(traced_sum, untraced_sum) - 1.0, "share"});
    return m;
}

int run(const options& opt)
{
    const e2e::workload w = e2e::make_workload(opt.workload, opt.seed, opt.scenarios);
    const std::size_t k = w.inputs.size();

    // Warm-up: one untimed run of every input. A process's first run of
    // an input pays one-time costs later runs do not (first touch of
    // fresh pages, lazy statics); on pilot those first runs were the
    // slowest eleven of ~950. The warm-up digest is the reference every
    // timed run must repeat.
    std::vector<std::uint32_t> digest(k);
    std::vector<std::string> mismatches;
    bool any_sharded = false;
    for (std::size_t i = 0; i < k; ++i) {
        const auto ex = e2e::execute(w.inputs[i]);
        digest[i] = ex.digest;
        any_sharded = any_sharded || ex.shards > 1;
    }
    // Peak RSS of running every input once. Later runs of sharded
    // inputs leave memory in exited workers' malloc arenas at random, so
    // a peak taken after the timed loop read 22 or 37 MiB on one seed.
    const double rss = e2e::peak_rss_mb();
    // soak-sharded: the same seed at shards = 1 must give the same digest.
    if (!w.reference_text.empty()) {
        const auto ref = e2e::execute({w.inputs[0].label + " at shards = 1", w.reference_text});
        if (ref.digest != digest[0])
            mismatches.push_back(w.inputs[0].label + ": digest differs from the shards = 1 run");
    }

    std::vector<input_runs> per_input(k);
    std::vector<bool> input_broken(k, false);
    std::uint64_t runs = 0;
    e2e::span_log spans;
    std::uint64_t run_id = 0;
    double traced_sum = 0, untraced_sum = 0;

    const auto t_start = clock_type::now();
    const auto elapsed = [&] {
        return std::chrono::duration<double>(clock_type::now() - t_start).count();
    };
    // Host speed, sampled between untraced runs every interval_s, once
    // before the first and once after the last (see host_probe.hpp).
    // Each run takes the mean slowdown of the bursts on either side: on
    // its own CPU, or over every CPU for a sharded run. Workloads
    // without sharded inputs skip the other CPUs.
    e2e::host_probe probe;
    double next_probe_s = 0;
    e2e::host_probe::sweep_result last{};
    // Runs since the last burst, as (input, index into its runs).
    std::vector<std::pair<std::size_t, std::size_t>> unscaled;
    const auto probe_host = [&](bool force) {
        if (!force && elapsed() < next_probe_s) return;
        e2e::host_probe::sweep_result s{};
        if (any_sharded) {
            s = probe.sweep();
        } else {
            s.own = s.mean = probe.burst();
        }
        for (const auto& [i, r] : unscaled) {
            auto& ex = per_input[i].runs[r];
            ex.slowdown = ex.shards > 1 ? 0.5 * (last.mean + s.mean) : 0.5 * (last.own + s.own);
        }
        unscaled.clear();
        last = s;
        next_probe_s = elapsed() + e2e::host_probe::interval_s;
    };
    const auto account = [&](std::size_t i, e2e::execution&& ex, bool traced) {
        ++runs;
        if (!ex.violations.empty()) input_broken[i] = true;
        if (ex.digest != digest[i])
            mismatches.push_back(ex.label + ": digest differs between same-seed runs");
        auto& ir = per_input[i];
        auto& list = traced ? ir.traced : ir.runs;
        if (!list.empty()) { // only the first run of each kind keeps its counts
            ex.counts.clear();
        }
        list.push_back(std::move(ex));
        if (!traced) unscaled.emplace_back(i, list.size() - 1);
    };

    std::size_t passes = 0;
    bool done = false;
    while (!done) {
        for (std::size_t i = 0; i < k && !done; ++i) {
            if (!opt.trace) {
                probe_host(false);
                account(i, e2e::execute(w.inputs[i]), false);
            } else {
                // Traced and untraced runs of the same input, alternating
                // which goes first, give the tracing overhead.
                const bool traced_first = (passes + i) % 2 == 0;
                for (int rep = 0; rep < 2; ++rep) {
                    const bool traced = (rep == 0) == traced_first;
                    auto ex = e2e::execute(w.inputs[i], traced ? &spans : nullptr, run_id);
                    if (traced) {
                        ++run_id;
                        traced_sum += ex.wall.scenario_s();
                    } else {
                        untraced_sum += ex.wall.scenario_s();
                    }
                    account(i, std::move(ex), traced);
                }
            }
            if (passes >= 1 && elapsed() >= opt.seconds) done = true;
        }
        if (!done) ++passes;
        if (elapsed() >= opt.seconds) done = true;
    }
    const double measured_s = elapsed();
    if (!opt.trace) probe_host(true);

    if (!mismatches.empty()) {
        for (const auto& m : mismatches) std::fprintf(stderr, "determinism: %s\n", m.c_str());
        return 1;
    }

    // First runs: the deterministic per-seed accounting.
    std::vector<const e2e::execution*> first(k);
    for (std::size_t i = 0; i < k; ++i)
        first[i] = opt.trace ? &per_input[i].traced.front() : &per_input[i].runs.front();
    double expected = 0, delivered = 0, bad_msgs = 0, events = 0, allocs_run = 0;
    for (const auto* ex : first) {
        expected += static_cast<double>(ex->expected);
        delivered += static_cast<double>(ex->delivered);
        bad_msgs += static_cast<double>(ex->lost + ex->duplicates);
        events += static_cast<double>(ex->events);
        allocs_run += static_cast<double>(ex->allocs_run);
        if (!ex->violations.empty())
            std::printf("invariant broken: %s: %s\n", ex->label.c_str(),
                        ex->violations.front().c_str());
    }
    std::uint64_t failed = 0;
    for (const bool b : input_broken) failed += b ? 1 : 0;
    const double broken = static_cast<double>(failed);

    std::printf("workload %s seed %llu: %zu inputs, %zu full passes, %llu runs in %.3f s, "
                "every digest equal to its warm-up run%s\n",
                w.name.c_str(), static_cast<unsigned long long>(opt.seed), k, passes,
                static_cast<unsigned long long>(runs), measured_s,
                w.reference_text.empty() ? "" : " and to the shards = 1 run");
    std::printf("failed_msg_share %.9g (%g lost or duplicated of %g expected), "
                "failed_run_share %.9g (%g of %zu inputs)\n",
                ratio(bad_msgs, expected), bad_msgs, expected, ratio(broken, double(k)),
                broken, k);

    std::vector<metric> m;
    if (!opt.trace) {
        // Times are process CPU seconds, every thread's (steal time, while
        // the host runs another guest on this vCPU, is left out), each
        // run's divided by the host's slowdown around it. The unscaled
        // and wall-clock figures are printed beside them.
        using ex_t = e2e::execution;
        const auto scaled_scenario = [](const ex_t& e) { return e.cpu.scenario_s() / e.slowdown; };
        const auto cpu_scenario = [](const ex_t& e) { return e.cpu.scenario_s(); };
        const auto wall_scenario = [](const ex_t& e) { return e.wall.scenario_s(); };
        const std::vector<double> scenario_s = input_medians(per_input, false, scaled_scenario);
        const std::vector<double> cpu_scenario_s = input_medians(per_input, false, cpu_scenario);
        const std::vector<double> wall_scenario_s = input_medians(per_input, false, wall_scenario);
        const double pass_s = sum_medians(per_input, false, scaled_scenario);
        const double cpu_pass_s = sum_medians(per_input, false, cpu_scenario);
        const double wall_pass_s = sum_medians(per_input, false, wall_scenario);
        const double run_s = sum_medians(per_input, false,
                                         [](const ex_t& e) { return e.cpu.run_s / e.slowdown; });
        const double setup_s = e2e::median(input_medians(
            per_input, false, [](const ex_t& e) { return e.cpu.setup_s() / e.slowdown; }));
        std::printf("scenario_s_p50 and scenario_s_tail are p50 and p%zu of %zu input "
                    "medians from %llu runs; %zu inputs lie beyond the tail\n",
                    e2e::tail_percentile, k, static_cast<unsigned long long>(runs),
                    k - e2e::nearest_rank(k, e2e::tail_percentile));
        std::printf("host slowdown %.4f: median of %zu reference chunks over %.3g ms\n",
                    probe.slowdown(), probe.chunks(), e2e::host_probe::nominal_s * 1e3);
        std::printf("unscaled CPU time: %.6g msg/s, scenario_s_p50 %.6g s\n",
                    ratio(delivered, cpu_pass_s), e2e::median(cpu_scenario_s));
        std::printf("wall clock: %.6g msg/s, scenario_s_p50 %.6g s, %.4f CPU seconds per "
                    "wall second\n",
                    ratio(delivered, wall_pass_s), e2e::median(wall_scenario_s),
                    ratio(cpu_pass_s, wall_pass_s));
        m = {
            {"msgs_per_s", ratio(delivered, pass_s), "msg/s"},
            {"events_per_s", ratio(events, run_s), "event/s"},
            {"scenario_s_p50", e2e::median(scenario_s), "s"},
            {"scenario_s_tail", e2e::percentile(scenario_s, e2e::tail_percentile), "s"},
            {"setup_s", setup_s, "s"},
            {"allocs_per_msg", ratio(allocs_run, delivered), "alloc/msg"},
            {"peak_rss_mb", rss, "MiB"},
            {"events_per_msg", ratio(events, delivered), "event/msg"},
            {"intact_msg_share", 1.0 - ratio(bad_msgs, expected), "share"},
            {"clean_run_share", 1.0 - ratio(broken, double(k)), "share"},
        };
    } else {
        m = layer_metrics(w, per_input, first, spans, traced_sum, untraced_sum);
    }
    for (const auto& x : m)
        if (!std::isfinite(x.value)) {
            std::fprintf(stderr, "metric %s is not finite\n", x.name.c_str());
            return 1;
        }
    if (!opt.spans_out.empty() && opt.trace && !spans.write_csv(opt.spans_out)) {
        std::fprintf(stderr, "cannot write spans to %s\n", opt.spans_out.c_str());
        return 1;
    }
    print_result(k, failed, m);
    return 0;
}

} // namespace

int main(int argc, char** argv)
{
    try {
        return run(parse_args(argc, argv));
    } catch (const std::exception& e) {
        std::fprintf(stderr, "e2ebench: %s\n", e.what());
        return 1;
    }
}
