// Configuration of the tournament protocols (SimpleAlgorithm, its unordered
// variant, and ImprovedAlgorithm).
//
// The paper states all quantities as Θ(·); every hidden constant is named
// here, with a value chosen so the w.h.p. guarantees hold for the
// population sizes the experiments simulate (n >= 2^8).  The ones
// experiment E9 ablates (`token_cap`, `psi_factor`) and the derived
// "0 = auto" ones are fields; the rest are named constants.
#pragma once

#include <cstdint>

namespace plurality::core {

/// Which of the paper's three protocols to run.
enum class algorithm_mode : std::uint8_t {
    ordered,    ///< SimpleAlgorithm, Theorem 1 (1): opinions numbered 1..k
    unordered,  ///< Theorem 1 (2): leader-elected challenger selection
    improved,   ///< Theorem 2: junta-clock pruning, then unordered tournaments
};

struct protocol_config {
    algorithm_mode mode = algorithm_mode::ordered;
    std::uint32_t n = 0;  ///< population size
    std::uint32_t k = 0;  ///< number of initial opinions

    // -- initialization (Algorithm 3) --------------------------------------
    std::uint32_t token_cap = 10;      ///< max tokens per collector (paper: 10)
    /// Clock counts to factor·log2(n) (paper: 5·log n).
    static constexpr double init_count_factor = 5.0;

    // -- leaderless phase clock (Algorithm 1, [1]) --------------------------
    std::uint32_t psi = 0;         ///< counter modulus Ψ; 0 = auto (psi_factor·⌈log2 n⌉)
    std::uint32_t psi_factor = 4;  ///< Ψ multiplier when psi is auto

    // -- match phase majority (Appendix A, substitute for [20]) ------------
    std::int64_t majority_amplification = 0;  ///< 0 = auto (8·2^⌈log2 n⌉)
    /// Decision threshold on balanced loads.
    static constexpr std::int64_t majority_threshold = 3;

    // -- leader election (Appendix B, substitute for [23]) ------------------
    std::uint16_t leader_rounds = 0;  ///< 0 = auto; rounded up to a phase-cycle multiple

    // -- pruning (Algorithm 5, ImprovedAlgorithm only) ----------------------
    /// The paper's constant c (the pruning phase starts at -c).
    static constexpr std::uint32_t prune_hours = 4;
    /// The paper's constant m (p-ticks per hour).
    static constexpr std::uint32_t junta_hour_length = 8;
    std::uint32_t junta_level_cap = 0;  ///< ℓmax; 0 = auto (⌊log2 log2 n⌋ - 2, min 1)

    // -- Appendix C: support for k beyond n/40 ------------------------------
    // Auto-enabled by finalize() when k > n/40.  Adds (a) counting agents
    // formed by pairs of single-token collectors, which count to
    // counting_factor·log2 n on self-selected trials and can trigger the
    // tournament start when too few clocks form, (b) fractional clock
    // decrements (the "decrease count by 1/c" modification), and (c)
    // recycling of collectors that never met their own opinion (their
    // singleton opinions cannot win and would otherwise strand tokens).
    bool large_k = false;
    std::uint32_t count_decrement_divisor = 1;  ///< the Appendix C constant c
    /// Counting agents count initiations up to counting_factor·log2 n.  The
    /// paper's "large C": big enough that a forming clock triggers first in
    /// the regimes where clocks do form, small enough to stay O(log n).
    static constexpr double counting_factor = 24.0;

    /// Number of phases per tournament cycle: 10 for the ordered algorithm
    /// (5 working phases + separators, §3.3), 12 when a selection phase is
    /// prepended (Appendix B / §4).
    [[nodiscard]] constexpr std::uint32_t phase_modulus() const noexcept {
        return mode == algorithm_mode::ordered ? 10 : 12;
    }

    /// Logical working phases mapped to their even phase numbers.
    [[nodiscard]] std::uint32_t select_phase() const noexcept { return 0; }  // unordered only
    [[nodiscard]] std::uint32_t setup_phase() const noexcept {
        return mode == algorithm_mode::ordered ? 0 : 2;
    }
    [[nodiscard]] std::uint32_t cancel_phase() const noexcept { return setup_phase() + 2; }
    [[nodiscard]] std::uint32_t lineup_phase() const noexcept { return setup_phase() + 4; }
    [[nodiscard]] std::uint32_t match_phase() const noexcept { return setup_phase() + 6; }
    [[nodiscard]] std::uint32_t conclude_phase() const noexcept { return setup_phase() + 8; }

    /// Fills every auto (0) field from n and k and validates ranges.
    /// Throws std::invalid_argument on nonsensical parameters.
    void finalize();

    /// Convenience constructor with all defaults finalized.
    [[nodiscard]] static protocol_config make(algorithm_mode mode, std::uint32_t n,
                                              std::uint32_t k);

    /// A generous parallel-time budget within which the protocol converges
    /// w.h.p.; used as the default cutoff by the run helpers.
    [[nodiscard]] double default_time_budget() const noexcept;
};

}  // namespace plurality::core
