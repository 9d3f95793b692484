// Averaging-based exact majority — the w.h.p.-fast majority substrate used
// inside the tournament's match phase.
//
// This substitutes for the black-box protocol of Doty, Eftekhari, Gąsieniec,
// Severson, Uznański and Stachowiak (FOCS 2021, [20]); see docs/ARCHITECTURE.md.  Each
// participant starts with a signed amplitude: +A for opinion "A" (defender
// side), -A for "B" (challenger side), 0 for undecided, where the
// amplification A is at least 8x the number of participants.  Agents then
// run discrete floor/ceil averaging (the same primitive as the cancellation
// phase, [12, 28]).  After O(log n) parallel time the loads concentrate
// within ±2 of the mean L·A/m (L = signed input difference, m =
// participants), so:
//
//   L >= +1  =>  every load >=  A/m - 2 >= 6   => everyone decides A,
//   L <= -1  =>  every load <= -A/m + 2 <= -6  => everyone decides B,
//   L == 0   =>  every load in [-2, 2]         => everyone reads "tie".
//
// A decision threshold of ±3 therefore separates the three cases, giving an
// *exact* majority decision w.h.p. even at bias 1 — including an explicit
// tie verdict, which the tournament maps to "defender retains".
//
// Time matches [20]'s O(log n); the state cost is Θ(A) instead of O(log n)
// (the price of not reproducing [20]'s machinery).  The census module maps
// loads to sign/exponent buckets — exactly the states a [20]-style protocol
// would hold — when verifying the paper's state bounds.
//
// The averaging step is load balancing's δ, so the protocol is
// `loadbalance::load_balance_protocol` on `loadbalance::load_agent`; this
// header holds what makes it a majority: the amplification, the starting
// census and the verdict readouts.
#pragma once

#include <cstdint>
#include <vector>

#include "loadbalance/load_balancer.h"
#include "sim/census_store.h"
#include "sim/population_view.h"

namespace plurality::majority {

enum class majority_verdict : std::uint8_t { plus, minus, tie, undecided };

/// The amplification used for a population bound of `n` participants:
/// 8 · 2^⌈log2 n⌉ >= 8n.
[[nodiscard]] std::int64_t default_amplification(std::uint32_t n) noexcept;

/// Decision of a single agent under threshold `thr` (default 3).
[[nodiscard]] majority_verdict agent_verdict(const loadbalance::load_agent& agent,
                                             std::int64_t thr = 3) noexcept;

/// Population verdict: `plus`/`minus`/`tie` if all agents agree on that
/// verdict, `undecided` otherwise (loads not yet concentrated).
template <sim::view::population_of<loadbalance::load_agent> Pop>
[[nodiscard]] majority_verdict population_verdict(const Pop& pop, std::int64_t thr = 3) {
    const auto verdict = [thr](const loadbalance::load_agent& a) {
        return agent_verdict(a, thr);
    };
    return sim::view::unanimous(pop, verdict).value_or(majority_verdict::undecided);
}

/// The initial census: `plus` agents at +amplification, `minus` at
/// -amplification and `zeros` at 0.
[[nodiscard]] std::vector<sim::census_entry<loadbalance::load_agent>> averaging_census(
    std::uint64_t plus, std::uint64_t minus, std::uint64_t zeros, std::int64_t amplification);

}  // namespace plurality::majority
