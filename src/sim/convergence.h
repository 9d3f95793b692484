// Shared convergence layer: the one run-to-predicate loop every protocol
// family drives through.
//
// `converge` is the only loop that steps a simulation in check-sized
// batches until a predicate holds or an interaction budget runs out; run
// helpers, scenarios, benches and tests all stop through it, so they stop at
// the same interaction for the same seed, budget and check interval.
// Callers contribute only the predicate and, optionally, an observer that is
// invoked at every check point — including once at parallel time 0, before
// the first interaction, which is what lets the trace recorder anchor its
// first row at t = 0.
//
// `converge` is generic over the *backend*: anything satisfying
// `steppable_simulation` — the agent-based `sim::simulation` and the
// census-space `sim::census_simulator` both do — drives through the same
// loop, which is what lets scenario predicates and trace observers work
// unchanged when the backend is switched.
#pragma once

#include <algorithm>
#include <cstdint>

#include "sim/simulation.h"

namespace plurality::sim {

/// Outcome of driving a simulation to a convergence predicate.
struct convergence_outcome {
    bool converged = false;          ///< predicate held within the budget
    double parallel_time = 0.0;      ///< parallel time when the loop stopped
    std::uint64_t interactions = 0;  ///< interactions executed in total
};

/// Interaction budget for `time_budget` units of parallel time over `n`
/// agents (parallel time = interactions / n).  Saturates to
/// `unlimited_interactions` when the product exceeds the 64-bit range
/// (reachable at census-backend scales, e.g. an n-scaled budget at n = 10⁹)
/// — casting such a double to uint64 would be undefined behavior.
[[nodiscard]] constexpr std::uint64_t interaction_budget(double time_budget,
                                                         std::size_t n) noexcept {
    if (time_budget <= 0.0) return 0;
    const double interactions = time_budget * static_cast<double>(n);
    if (interactions >= 0x1.0p64) return unlimited_interactions;
    return static_cast<std::uint64_t>(interactions);
}

/// Callable invoked at every predicate check point (tracing hook).
template <class T, class Sim>
concept convergence_observer = std::invocable<T&, const Sim&>;

/// Occupied-state count of a census-space backend, or 0 for backends that do
/// not track one (the agent backend).  Lets generic observers — e.g. the
/// progress heartbeat — report occupancy without constraining the backend.
template <class Sim>
[[nodiscard]] std::size_t occupied_states_or_zero(const Sim& sim) noexcept {
    if constexpr (requires { { sim.occupied_states() } -> std::convertible_to<std::size_t>; }) {
        return sim.occupied_states();
    } else {
        return 0;
    }
}

/// What a simulation backend must provide to be driven by `converge`: batch
/// stepping plus the three progress accessors the loop and its callers read.
template <class S>
concept steppable_simulation = requires(S s, const S cs, std::uint64_t count) {
    s.run_for(count);
    { cs.interactions() } -> std::convertible_to<std::uint64_t>;
    { cs.parallel_time() } -> std::convertible_to<double>;
    { cs.population_size() } -> std::convertible_to<std::size_t>;
};

/// Runs `sim` until `done(sim)` holds or `max_interactions` total
/// interactions have executed, checking every `check_every` interactions
/// (0 = once per parallel-time unit).  `observe(sim)` fires before the first
/// interaction and after every subsequent check.
///
/// The trajectory is a pure function of the simulation's seed; `check_every`
/// only affects how promptly the loop notices convergence.
template <steppable_simulation Sim, std::predicate<const Sim&> Done,
          convergence_observer<Sim> Observe>
convergence_outcome converge(Sim& sim, Done&& done, std::uint64_t max_interactions,
                             std::uint64_t check_every, Observe&& observe) {
    if (check_every == 0) check_every = sim.population_size();
    observe(sim);
    bool reached = done(sim);
    while (!reached && sim.interactions() < max_interactions) {
        const std::uint64_t batch =
            std::min<std::uint64_t>(check_every, max_interactions - sim.interactions());
        sim.run_for(batch);
        observe(sim);
        reached = done(sim);
    }
    convergence_outcome out;
    out.converged = reached;
    out.parallel_time = sim.parallel_time();
    out.interactions = sim.interactions();
    return out;
}

/// Observer-free overload.
template <steppable_simulation Sim, std::predicate<const Sim&> Done>
convergence_outcome converge(Sim& sim, Done&& done, std::uint64_t max_interactions,
                             std::uint64_t check_every = 0) {
    return converge(sim, std::forward<Done>(done), max_interactions, check_every,
                    [](const Sim&) {});
}

}  // namespace plurality::sim
