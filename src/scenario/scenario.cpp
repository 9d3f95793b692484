#include "scenario/scenario.h"

#include <charconv>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string_view>

namespace plurality::scenario {

const char* backend_name(backend_kind backend) noexcept {
    switch (backend) {
        case backend_kind::census: return "census";
        case backend_kind::batch: return "batch";
        case backend_kind::leap: return "leap";
        case backend_kind::agent: break;
    }
    return "agent";
}

std::optional<backend_kind> parse_backend(std::string_view name) noexcept {
    if (name == "agent") return backend_kind::agent;
    if (name == "census") return backend_kind::census;
    if (name == "leap") return backend_kind::leap;
    return std::nullopt;
}

const char* backend_list() noexcept { return "agent|census|leap"; }

workload::opinion_distribution make_workload(const scenario_params& params, sim::rng& gen) {
    if (params.workload == "bias1")
        return workload::make_bias_one(params.n, params.k, params.bias);
    if (params.workload == "uniform") return workload::make_uniform_random(params.n, params.k, gen);
    if (params.workload == "zipf")
        return workload::make_zipf(params.n, params.k, params.zipf_s, gen);
    if (params.workload == "dominant")
        return workload::make_dominant_plus_dust(params.n, params.fraction, params.dust);
    if (params.workload == "two-heavy")
        return workload::make_two_heavy_plus_dust(params.n, params.bias, params.dust);
    throw std::invalid_argument("unknown workload '" + params.workload +
                                "' (expected bias1|uniform|zipf|dominant|two-heavy)");
}

namespace {

/// A whole base-10 number fitting `std::uint32_t`: digits only — no sign, no
/// whitespace, no trailing characters — so that `5000000000` or `-5` cannot
/// wrap into a plausible population size the way a strtoul cast does.
std::optional<std::uint32_t> parse_count(const char* text) {
    std::uint32_t value = 0;
    const char* end = text + std::strlen(text);
    const auto [stop, error] = std::from_chars(text, end, value);
    if (error != std::errc{} || stop != end || stop == text) return std::nullopt;
    return value;
}

}  // namespace

flag_parse parse_param_flag(scenario_params& params, int argc, char** argv, int& i) {
    const std::string_view flag = argv[i];
    const auto is_param = flag == "--n" || flag == "--k" || flag == "--workload" ||
                          flag == "--bias" || flag == "--dust" || flag == "--fraction" ||
                          flag == "--zipf-s" || flag == "--sources" || flag == "--time-budget";
    if (!is_param) return flag_parse::not_mine;
    if (i + 1 >= argc) return flag_parse::missing_value;
    const char* value = argv[++i];
    std::uint32_t* count = flag == "--n"         ? &params.n
                           : flag == "--k"       ? &params.k
                           : flag == "--bias"    ? &params.bias
                           : flag == "--dust"    ? &params.dust
                           : flag == "--sources" ? &params.sources
                                                 : nullptr;
    if (count != nullptr) {
        const auto parsed = parse_count(value);
        if (!parsed) return flag_parse::invalid_value;
        *count = *parsed;
    } else if (flag == "--workload") {
        params.workload = value;
    } else if (flag == "--fraction") {
        params.fraction = std::strtod(value, nullptr) / 100.0;
    } else if (flag == "--zipf-s") {
        params.zipf_s = std::strtod(value, nullptr);
    } else {  // --time-budget
        params.time_budget = std::strtod(value, nullptr);
    }
    return flag_parse::consumed;
}

}  // namespace plurality::scenario
