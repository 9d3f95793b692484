// Scenario registration for the one-way epidemic broadcast (src/epidemic).
// The predicates and metrics call the family's readouts (epidemic/epidemic.h),
// templates over any population view, so the broadcast runs on both the
// agent and the census backend — its census has at most three occupied
// states, which makes it the canonical n = 10⁹ demonstration scenario.
#include <stdexcept>
#include <string>

#include "epidemic/epidemic.h"
#include "scenario/builtin.h"
#include "scenario/registry.h"
#include "util/math.h"

namespace plurality::scenario {

namespace {

struct epidemic_spec {
    using protocol_t = epidemic::epidemic_protocol;
    using agent_t = epidemic::epidemic_agent;

    /// Informed agents at t = 0; outside [1, n] the run fails, unclamped.
    static std::uint32_t sources(const scenario_params& p) {
        if (p.sources < 1 || p.sources > p.n)
            throw std::invalid_argument("invalid --sources " + std::to_string(p.sources) +
                                        " for --n " + std::to_string(p.n) +
                                        " (expected 1 to n informed agents)");
        return p.sources;
    }

    protocol_t make_protocol(const scenario_params&, sim::rng&) { return {}; }
    std::vector<sim::census_entry<agent_t>> make_census(const scenario_params& p, sim::rng&) {
        const std::uint32_t informed = sources(p);
        return {{{true, 1}, informed}, {{false, 0}, p.n - informed}};
    }
    template <class Sim>
    bool converged(const Sim& s) const {
        return epidemic::all_informed(s);
    }
    template <class Sim>
    bool correct(const Sim& s) const {
        // The payload must spread with the bit: every agent carries value 1.
        return epidemic::all_carry_payload(s, 1);
    }
    double time_budget(const scenario_params& p) const {
        return 64.0 * static_cast<double>(util::ceil_log2(p.n < 2 ? 2 : p.n) + 1);
    }
    template <class Sim>
    std::vector<metric> metrics(const Sim& s) const {
        return {{"informed_fraction", epidemic::informed_fraction(s)}};
    }
};

}  // namespace

void register_epidemic_scenarios(scenario_registry& registry) {
    registry.add({"epidemic/broadcast", "epidemic",
                  "One-way epidemic: rumor reaches all n agents in Theta(log n)",
                  epidemic_spec{}});
}

}  // namespace plurality::scenario
