#include "netsim/fault.hpp"

namespace mmtp::netsim {

void fault_scheduler::fail_link_at(link& l, sim_time at)
{
    l.sched().schedule_at(at, [this, &l] {
        if (!l.up()) return;
        stats_.link_downs++;
        l.set_up(false);
    });
}

void fault_scheduler::repair_link_at(link& l, sim_time at)
{
    l.sched().schedule_at(at, [this, &l] {
        if (l.up()) return;
        stats_.link_ups++;
        l.set_up(true);
    });
}

void fault_scheduler::flap_link(link& l, sim_time first_down, sim_duration down_for,
                                sim_duration up_for, unsigned cycles)
{
    const sim_duration period = down_for + up_for;
    for (unsigned i = 0; i < cycles; ++i) {
        const sim_time down_at = first_down + period * static_cast<std::int64_t>(i);
        fail_link_at(l, down_at);
        repair_link_at(l, down_at + down_for);
        stats_.flap_cycles_scheduled++;
    }
}

void fault_scheduler::corruption_burst(link& l, sim_time at, sim_duration duration,
                                       double ber)
{
    l.sched().schedule_at(at, [this, &l, duration, ber] {
        stats_.corruption_bursts++;
        const double saved = l.config().bit_error_rate;
        l.set_bit_error_rate(ber);
        l.sched().schedule_in(duration, [&l, saved] { l.set_bit_error_rate(saved); });
    });
}

void fault_scheduler::dispatch_hooks(
    std::map<const node*, std::vector<std::function<void()>>>& hooks, const node& n)
{
    // Fire from a snapshot: a hook may register or remove hooks mid-fire
    // (a restore hook re-arming the next blackout, a teardown hook
    // clearing itself), which mutates the live vector under iteration.
    // The snapshot keeps dispatch well-defined: everything registered
    // when the event fired runs exactly once; additions wait for the
    // next event; removals do not abort the current round.
    auto it = hooks.find(&n);
    if (it == hooks.end()) return;
    const std::vector<std::function<void()>> snapshot = it->second;
    for (const auto& fn : snapshot) fn();
}

void fault_scheduler::blackout_node(node& n, sim_time at)
{
    n.sim().schedule_at(at, [this, &n] {
        if (!n.powered()) return;
        stats_.node_blackouts++;
        n.set_powered(false);
        dispatch_hooks(blackout_hooks_, n);
    });
}

void fault_scheduler::restore_node(node& n, sim_time at)
{
    n.sim().schedule_at(at, [this, &n] {
        if (n.powered()) return;
        stats_.node_restores++;
        n.set_powered(true);
        dispatch_hooks(restore_hooks_, n);
    });
}

void fault_scheduler::on_blackout(node& n, std::function<void()> fn)
{
    blackout_hooks_[&n].push_back(std::move(fn));
}

void fault_scheduler::on_restore(node& n, std::function<void()> fn)
{
    restore_hooks_[&n].push_back(std::move(fn));
}

void fault_scheduler::clear_hooks(node& n)
{
    blackout_hooks_.erase(&n);
    restore_hooks_.erase(&n);
}

void fault_scheduler::blackout_window(node& n, sim_time at, sim_duration duration)
{
    blackout_node(n, at);
    restore_node(n, at + duration);
}

} // namespace mmtp::netsim
