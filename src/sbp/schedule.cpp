#include "sbp/schedule.hpp"

#include <algorithm>

namespace hsbp::sbp {

const char* schedule_name(PassSchedule schedule) noexcept {
  switch (schedule) {
    case PassSchedule::Static:
      return "static";
    case PassSchedule::Dynamic:
      return "dynamic";
    case PassSchedule::Guided:
      return "guided";
    case PassSchedule::DegreeSorted:
      return "degree-sorted";
  }
  return "static";
}

std::optional<PassSchedule> parse_schedule(std::string_view name) noexcept {
  if (name == "static") return PassSchedule::Static;
  if (name == "dynamic") return PassSchedule::Dynamic;
  if (name == "guided") return PassSchedule::Guided;
  if (name == "degree-sorted" || name == "degree_sorted") {
    return PassSchedule::DegreeSorted;
  }
  return std::nullopt;
}

void degree_sorted_order(const graph::GraphView& graph,
                         std::span<const graph::Vertex> vertices,
                         std::vector<graph::Vertex>& out,
                         std::size_t run) {
  out.assign(vertices.begin(), vertices.end());
  const auto by_degree = [&graph](graph::Vertex a, graph::Vertex b) {
    return graph.degree(a) > graph.degree(b);
  };
  for (std::size_t begin = 0; begin < out.size(); begin += run) {
    const std::size_t end = out.size() - begin > run ? begin + run : out.size();
    std::stable_sort(out.begin() + static_cast<std::ptrdiff_t>(begin),
                     out.begin() + static_cast<std::ptrdiff_t>(end), by_degree);
  }
}

}  // namespace hsbp::sbp
