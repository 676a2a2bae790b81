#include "workloads.hpp"

#include "scenario/campaign.hpp"
#include "scenario/dsl.hpp"

#include <fstream>
#include <map>
#include <sstream>

namespace e2e {

namespace {

std::string read_file(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) throw std::runtime_error("cannot read " + path);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

std::string trim(const std::string& s)
{
    const auto b = s.find_first_not_of(" \t\r");
    if (b == std::string::npos) return {};
    const auto e = s.find_last_not_of(" \t\r");
    return s.substr(b, e - b + 1);
}

std::string soak_text(const std::string& dir, std::uint64_t seed)
{
    std::string t = read_file(dir + "/soak.scenario");
    t = set_key(t, "traffic", "messages_per_stream",
                std::to_string(soak_messages_per_stream));
    return set_key(t, "scenario", "seed", std::to_string(seed));
}

} // namespace

std::string campaign_class(const mmtp::scenario::scenario_spec& spec)
{
    if (spec.topology == "chaos" || spec.topology == "soak")
        return spec.topology + "/" + std::to_string(spec.shards());
    return spec.topology;
}

const std::vector<std::string>& workload_names()
{
    static const std::vector<std::string> names{"soak", "soak-sharded", "pilot",
                                                "campaign"};
    return names;
}

std::string set_key(const std::string& text, const std::string& section,
                    const std::string& key, const std::string& value)
{
    std::istringstream in(text);
    std::string out;
    std::string line;
    std::string current;
    bool replaced = false;
    while (std::getline(in, line)) {
        const std::string t = trim(line);
        if (!t.empty() && t.front() == '[' && t.back() == ']') {
            current = trim(t.substr(1, t.size() - 2));
        } else if (current == section && !replaced) {
            const auto eq = t.find('=');
            if (eq != std::string::npos && trim(t.substr(0, eq)) == key) {
                line = key + " = " + value;
                replaced = true;
            }
        }
        out += line;
        out += '\n';
    }
    if (!replaced)
        throw std::runtime_error("no '" + key + "' in [" + section + "]");
    return out;
}

workload make_workload(const std::string& name, std::uint64_t seed,
                       const std::string& scenario_dir)
{
    workload w;
    w.name = name;
    if (name == "soak" || name == "soak-sharded") {
        const std::string base = soak_text(scenario_dir, seed);
        if (name == "soak") {
            w.inputs.push_back({"soak seed " + std::to_string(seed), base});
        } else {
            w.inputs.push_back(
                {"soak seed " + std::to_string(seed) + " shards "
                     + std::to_string(soak_sharded_shards),
                 base + "\n[engine]\nshards = " + std::to_string(soak_sharded_shards)
                     + "\n"});
            w.reference_text = base;
        }
    } else if (name == "pilot") {
        const std::string base = read_file(scenario_dir + "/pilot.scenario");
        for (std::uint64_t i = 0; i < pilot_batch; ++i) {
            const std::uint64_t s = seed + i + 1;
            w.inputs.push_back({"pilot seed " + std::to_string(s),
                                set_key(base, "scenario", "seed", std::to_string(s))});
        }
    } else if (name == "campaign") {
        // Walk the generator from a per-seed origin and keep each spec
        // whose class still has room, so every batch has the generator's
        // own mix and only the sizes inside each class vary by seed.
        std::map<std::string, std::uint64_t> room;
        for (const auto& [cls, n] : campaign_round)
            room[cls] = n * campaign_rounds;
        std::uint64_t wanted = 0;
        for (const auto& [cls, n] : room) wanted += n;
        const std::uint64_t origin = seed + 1;
        for (std::uint64_t s = origin; wanted > 0; ++s) {
            if (s - origin >= campaign_walk_limit)
                throw std::runtime_error("campaign: generator classes not filled");
            const auto spec = mmtp::scenario::campaign::generate(s);
            auto it = room.find(campaign_class(spec));
            if (it == room.end() || it->second == 0) continue;
            --it->second;
            --wanted;
            w.inputs.push_back({"campaign generate(" + std::to_string(s) + ")",
                                mmtp::scenario::render_scenario(spec)});
        }
    } else {
        throw std::runtime_error("unknown workload '" + name + "'");
    }
    return w;
}

} // namespace e2e
