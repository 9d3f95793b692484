#include "baselines/usd_plurality.h"

#include "sim/convergence.h"

namespace plurality::baselines {

std::vector<sim::census_entry<usd_agent>> initial_census(
    const workload::opinion_distribution& dist) {
    std::vector<sim::census_entry<usd_agent>> entries;
    for (std::uint32_t opinion = 1; opinion <= dist.k(); ++opinion) {
        const std::uint32_t support = dist.support_of(opinion);
        if (support > 0) entries.push_back({{opinion}, support});
    }
    return entries;
}

std::vector<sim::census_entry<usd_agent>> binary_census(std::uint64_t alpha, std::uint64_t beta,
                                                        std::uint64_t undecided) {
    return {{{1}, alpha}, {{2}, beta}, {{0}, undecided}};
}

usd_result run_usd(const workload::opinion_distribution& dist, std::uint64_t seed,
                   double time_budget) {
    sim::rng setup_gen(sim::derive_seed(seed, 0x05d0ull));
    auto population = sim::expand_census(initial_census(dist), setup_gen);
    sim::simulation<usd_plurality_protocol> simulation{
        usd_plurality_protocol{}, std::move(population), sim::derive_seed(seed, 0x05d1ull)};

    const auto done = [](const auto& s) { return consensus_reached(s); };
    const auto run =
        sim::converge(simulation, done, sim::interaction_budget(time_budget, dist.n()));

    usd_result result;
    result.converged = run.converged;
    result.winner_opinion = consensus_opinion(simulation);
    result.correct = result.converged && result.winner_opinion == dist.plurality_opinion();
    result.parallel_time = run.parallel_time;
    return result;
}

}  // namespace plurality::baselines
