// Enumerating a randomized transition function δ(u, v) as a small fixed list
// of outcomes with exact probabilities — the protocol-side half of the
// randomized-δ group path (the backend-side half lives in sim/group_delta.h).
//
// The census simulator's table path applies δ per ordered state-pair
// *group*: all m interactions of a collision-free run that see the same
// (initiator-state, responder-state) pair.  Within such a group the per-pair random choices
// are i.i.d. (every interaction sees the identical pre-run states), so if
// the pair's outcome distribution is a known finite list
// (u′₁, v′₁, p₁), …, (u′ₒ, v′ₒ, pₒ), the whole group advances with ONE
// multinomial split of m across the o outcomes instead of m per-pair RNG
// calls — the exact same Markov chain, m−1 δ evaluations cheaper.
//
// A protocol opts in by templating its transition function over the
// generator type,
//
//     template <class R> void interact(agent_t&, agent_t&, R&) const;
//
// defined in the header or explicitly instantiated for `sim::rng` and
// `sim::delta_replay` (`delta_enumerable`); there is no other hook.  A pair
// whose δ asks for no random choice at all (`choice_free_delta`: one replay
// against an empty script) has a single outcome, so the backend advances its
// group with that one evaluation and never enumerates it.
// `enumerate_delta_outcomes` discovers the outcome list mechanically rather
// than asking protocol authors to hand-maintain probability tables: it runs
// `interact` against a *scripted* generator (`delta_replay`) that answers
// the δ's random choices from a prefix script and records the first
// unscripted choice point, then walks the resulting choice tree depth-first.
// Each root-to-leaf path is one outcome whose probability is the product of
// its choice probabilities, so the returned list is exhaustive and its
// probabilities sum to 1 by construction.  This is exact precisely when
// every random choice's distribution depends on the ordered state pair
// alone — which holds for fair coins (`next_bool`), bounded uniforms
// (`next_below` with a state-determined bound) and Bernoulli trials with a
// state-determined p.  Pairs that consult non-enumerable entropy (raw
// 64-bit words, `next_unit`) or exceed the arity/depth/outcome caps make
// enumeration return false, and the table path keeps its exact per-pair
// fallback for those pairs.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace plurality::sim {

/// One possible result of δ applied to a fixed ordered state pair.
template <class Agent>
struct delta_outcome {
    Agent initiator;
    Agent responder;
    double probability = 0.0;
};

/// Scripted stand-in for `sim::rng`: answers the first `script.size()`
/// random choices of a δ evaluation from the script, then flags the first
/// unscripted choice point (its arity) so the enumerator can expand it.
/// Degenerate requests (a 1-ary uniform, a p ∈ {0, 1} Bernoulli) have a
/// forced value and are not choice points at all — the choice tree only
/// branches where the outcome genuinely varies.
class delta_replay {
public:
    using result_type = std::uint64_t;

    /// Caps keeping every choice tree small.  `max_choice_arity` bounds a
    /// single uniform request (`next_below` beyond it is treated as
    /// non-enumerable); `max_script_length` bounds the number of random
    /// choices along one δ evaluation.
    static constexpr std::uint32_t max_choice_arity = 16;
    static constexpr std::uint32_t max_script_length = 16;

    explicit delta_replay(std::span<const std::uint32_t> script) noexcept : script_(script) {}

    [[nodiscard]] bool next_bool() noexcept { return choose(2, 0.5) == 1; }

    [[nodiscard]] bool next_bernoulli(double p) noexcept {
        if (p <= 0.0) return false;  // forced: next_unit() < p can never hold
        if (p >= 1.0) return true;   // forced: next_unit() < 1 always holds
        return choose(2, p) == 1;
    }

    [[nodiscard]] std::uint64_t next_below(std::uint64_t bound) noexcept {
        if (bound == 0 || bound > max_choice_arity) {
            non_enumerable_ = true;
            return 0;
        }
        if (bound == 1) return 0;  // forced
        return choose(static_cast<std::uint32_t>(bound), -1.0);
    }

    // Raw word and unit-interval draws have (effectively) continuous outcome
    // spaces: not enumerable, the pair must use the per-pair fallback.
    [[nodiscard]] std::uint64_t next() noexcept {
        non_enumerable_ = true;
        return 0;
    }
    [[nodiscard]] double next_unit() noexcept {
        non_enumerable_ = true;
        return 0.0;
    }

    // UniformRandomBitGenerator interface (protocols doing std::shuffle and
    // friends are by definition not enumerable).
    static constexpr result_type min() noexcept { return 0; }
    static constexpr result_type max() noexcept { return ~0ull; }
    result_type operator()() noexcept { return next(); }

    /// True if this run consulted entropy the enumerator cannot expand.
    [[nodiscard]] bool non_enumerable() const noexcept { return non_enumerable_; }
    /// True if this run requested a choice beyond the script's end.
    [[nodiscard]] bool overflowed() const noexcept { return overflow_arity_ != 0; }
    /// Arity of the first unscripted choice point (0 when none).
    [[nodiscard]] std::uint32_t overflow_arity() const noexcept { return overflow_arity_; }
    /// Probability of the scripted path: Π per-choice probabilities.
    [[nodiscard]] double path_probability() const noexcept { return path_probability_; }

private:
    /// `bernoulli_p >= 0`: two-way branch with P(value 1) = bernoulli_p.
    /// `bernoulli_p < 0`: uniform over [0, arity).
    [[nodiscard]] std::uint32_t choose(std::uint32_t arity, double bernoulli_p) noexcept {
        if (pos_ < script_.size()) {
            const std::uint32_t value = script_[pos_++];
            if (value >= arity) {
                // A scripted value can only miss its request if δ is not a
                // deterministic function of (states, choices) — defensive.
                non_enumerable_ = true;
                return 0;
            }
            path_probability_ *= bernoulli_p < 0.0
                                     ? 1.0 / static_cast<double>(arity)
                                     : (value == 1 ? bernoulli_p : 1.0 - bernoulli_p);
            return value;
        }
        if (overflow_arity_ == 0) overflow_arity_ = arity;
        return 0;  // past the first unscripted choice the run is discarded
    }

    std::span<const std::uint32_t> script_;
    std::size_t pos_ = 0;
    double path_probability_ = 1.0;
    std::uint32_t overflow_arity_ = 0;
    bool non_enumerable_ = false;
};

/// A protocol whose transition function accepts a `delta_replay` as its
/// generator — a template over the generator type — so its outcome lists
/// can be enumerated.  The table path groups δ (one evaluation per
/// choice-free pair, the randomized-δ group path of sim/group_delta.h for
/// the others) for exactly these protocols; one whose `interact` takes only
/// a `sim::rng&` keeps the exact per-pair fallback.
template <class P>
concept delta_enumerable =
    requires(const P p, typename P::agent_t& u, typename P::agent_t& v, delta_replay& replay) {
        p.interact(u, v, replay);
    };

/// Evaluates δ(u, v) in place against an empty script: true when the pair
/// asks for no random choice (forced requests aside), so that δ maps it to
/// the states left in `u` and `v` with probability 1 — the root of the
/// choice tree `enumerate_delta_outcomes` walks, and its only leaf.  False
/// when δ reaches a choice point or non-enumerable entropy; `u` and `v` are
/// then unspecified.
template <delta_enumerable P>
[[nodiscard]] bool choice_free_delta(const P& proto, typename P::agent_t& u,
                                     typename P::agent_t& v) {
    delta_replay replay{{}};
    proto.interact(u, v, replay);
    return !replay.overflowed() && !replay.non_enumerable();
}

/// Outcome-list size cap: a pair whose choice tree has more leaves falls
/// back to per-pair δ (such pairs are rare corners — e.g. an agent stepping
/// through many phases at once — where grouping would not pay anyway).
inline constexpr std::size_t max_delta_outcomes = 64;
/// Total δ evaluations allowed per enumeration (tree nodes, not leaves).
inline constexpr std::size_t max_enumeration_runs = 4096;

/// Expands the choice tree of δ(u, v) depth-first.  Returns true and fills
/// `out` with one entry per root-to-leaf path (duplicates of equal final
/// states are possible and fine — callers merge equal states), or returns
/// false (with `out` cleared) when the pair resists a finite choice tree.
template <delta_enumerable P>
[[nodiscard]] bool enumerate_delta_outcomes(const P& proto, const typename P::agent_t& u,
                                            const typename P::agent_t& v,
                                            std::vector<delta_outcome<typename P::agent_t>>& out) {
    out.clear();
    std::vector<std::vector<std::uint32_t>> pending;  // unexplored scripts (DFS)
    pending.emplace_back();
    std::size_t runs = 0;
    while (!pending.empty()) {
        if (++runs > max_enumeration_runs) {
            out.clear();
            return false;
        }
        const std::vector<std::uint32_t> script = std::move(pending.back());
        pending.pop_back();
        typename P::agent_t ru = u;
        typename P::agent_t rv = v;
        delta_replay replay{script};
        proto.interact(ru, rv, replay);
        if (replay.non_enumerable()) {
            out.clear();
            return false;
        }
        if (replay.overflowed()) {
            if (script.size() >= delta_replay::max_script_length) {
                out.clear();
                return false;
            }
            for (std::uint32_t alt = 0; alt < replay.overflow_arity(); ++alt) {
                pending.emplace_back(script).push_back(alt);
            }
            continue;
        }
        if (out.size() >= max_delta_outcomes) {
            out.clear();
            return false;
        }
        out.push_back({ru, rv, replay.path_probability()});
    }
    return true;
}

}  // namespace plurality::sim
