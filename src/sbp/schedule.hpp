/// \file schedule.hpp
/// \brief Work-distribution policy for the asynchronous MCMC passes
/// (DESIGN §13).
///
/// A pass runs in rounds (async_pass.hpp); the schedule only decides
/// how each round's evaluations are spread over the team. The result is
/// the same under every schedule and at every thread count, so the
/// choice is a speed knob. The default `schedule(static)` gives every
/// thread one contiguous range of the round, which is skew-blind: one
/// hub-heavy range holds up the round (the paper's §5.5 load-balancing
/// remark). The alternatives trade scheduling overhead for balance:
///
///   - Static:       contiguous chunks; the default.
///   - Dynamic:      `schedule(dynamic, 16)`; threads steal 16-vertex
///                   chunks.
///   - Guided:       `schedule(guided)`; geometrically shrinking chunks,
///                   lower steal overhead than Dynamic.
///   - DegreeSorted: each round re-ordered by descending degree, then
///                   dealt round-robin (`schedule(static, 1)`), so the
///                   heavy vertices spread across threads first.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "graph/view.hpp"

namespace hsbp::sbp {

/// OpenMP work distribution of an asynchronous pass over its vertex set.
enum class PassSchedule {
  Static,
  Dynamic,
  Guided,
  DegreeSorted,
};

/// Stable lowercase name ("static", "dynamic", "guided",
/// "degree-sorted") — the CLI/bench spelling.
const char* schedule_name(PassSchedule schedule) noexcept;

/// Inverse of schedule_name; nullopt for unknown spellings.
std::optional<PassSchedule> parse_schedule(std::string_view name) noexcept;

/// Fills `out` with `vertices` re-ordered by descending total degree
/// within each consecutive run of `run` vertices (the whole list by
/// default). Ties keep their input order (stable), so the result — and
/// therefore the DegreeSorted vertex→thread mapping — is deterministic.
/// \pre run > 0.
void degree_sorted_order(const graph::GraphView& graph,
                         std::span<const graph::Vertex> vertices,
                         std::vector<graph::Vertex>& out,
                         std::size_t run = SIZE_MAX);

}  // namespace hsbp::sbp
