#include "scenario/scenario.h"

#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>
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

std::runtime_error agent_population_too_large(std::uint64_t n, std::size_t agent_bytes) {
    return std::runtime_error("agent backend: a population of n = " + std::to_string(n) +
                              " needs " + std::to_string(n * agent_bytes) + " bytes (n x " +
                              std::to_string(agent_bytes) +
                              "-byte agent states), more than this process can allocate; "
                              "use --backend census");
}

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

std::optional<std::uint64_t> parse_whole_number(const char* text, std::uint64_t max) noexcept {
    std::uint64_t value = 0;
    const char* end = text + std::strlen(text);
    const auto [stop, error] = std::from_chars(text, end, value);
    if (error != std::errc{} || stop != end || stop == text || value > max) return std::nullopt;
    return value;
}

std::optional<double> parse_finite_number(const char* text) noexcept {
    char* end = nullptr;
    errno = 0;
    const double value = std::strtod(text, &end);
    if (end == text || *end != '\0' || errno == ERANGE || !std::isfinite(value))
        return std::nullopt;
    return value;
}

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
        const auto parsed = parse_whole_number(value, std::numeric_limits<std::uint32_t>::max());
        if (!parsed) return flag_parse::invalid_value;
        *count = static_cast<std::uint32_t>(*parsed);
    } else if (flag == "--workload") {
        params.workload = value;
    } else if (flag == "--fraction") {
        const auto percent = parse_finite_number(value);
        if (!percent || *percent <= 0.0 || *percent >= 100.0) return flag_parse::invalid_value;
        params.fraction = *percent / 100.0;
    } else {  // --zipf-s, --time-budget
        const auto parsed = parse_finite_number(value);
        if (!parsed || *parsed < 0.0) return flag_parse::invalid_value;
        (flag == "--zipf-s" ? params.zipf_s : params.time_budget) = *parsed;
    }
    return flag_parse::consumed;
}

const char* param_flag_expectation(std::string_view flag) noexcept {
    if (flag == "--fraction") return "a value > 0 and < 100, in percent";
    if (flag == "--zipf-s") return "a finite value >= 0";
    if (flag == "--time-budget") return "a finite value >= 0, in parallel-time units";
    return "a whole number from 0 to 4294967295";
}

}  // namespace plurality::scenario
