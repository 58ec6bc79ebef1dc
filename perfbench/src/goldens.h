// Pinned outputs the benchmark checks every run against. A mismatch
// fails the run: a faster program that answers differently is not a
// speed-up. Re-pin only when a change is meant to alter an answer.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>

namespace perfbench::goldens {

/// quick_grid(): witness_digest_hex of every solvable cell.
inline const std::map<std::string, std::string> kGridDigests = {
    {"wf-is-1", "063b4171af8dc8c2"},      {"wf-is-2", "36e503452cdda31f"},
    {"ksa-2-2-2-wf", "063b4171af8dc8c2"}, {"lt-1-1-wf", "ca6bbc8c1ed9a317"},
    {"lt-1-1-res1", "9f3845661ac72699"},  {"lt-1-1-adv1", "9f3845661ac72699"},
    {"lt-2-1-res1", "2804cd4511698afd"},  {"lt-2-1-adv1", "2804cd4511698afd"},
    {"lt-2-2-res1", "b4308f7c303faee2"},  {"lt-2-2-adv1", "b4308f7c303faee2"},
    {"is-1-of1", "4e2d7c2dadbe27c2"},     {"is-1-of2", "4e2d7c2dadbe27c2"},
    {"is-2-of1", "29caf900af715a50"},     {"is-2-of2", "29caf900af715a50"},
    {"approx-1-of1", "9f3845661ac72699"}, {"approx-1-of2", "9f3845661ac72699"},
    {"approx-2-of1", "b4308f7c303faee2"}, {"approx-2-of2", "b4308f7c303faee2"},
};
/// quick_grid(): 22 cells, of which these many per verdict.
inline constexpr std::size_t kGridCells = 22;
inline constexpr std::size_t kGridSolvable = 18;
inline constexpr std::size_t kGridUnsolvable = 4;

/// Digests of the served request mix (registry names, all solvable).
inline const std::map<std::string, std::string> kServeDigests = {
    {"chr2-2p-wf", "ca6bbc8c1ed9a317"},   {"wf-is-1", "063b4171af8dc8c2"},
    {"wf-is-2", "36e503452cdda31f"},      {"lt-1-1-res1", "9f3845661ac72699"},
    {"is-1-of1", "4e2d7c2dadbe27c2"},     {"approx-1-of1", "9f3845661ac72699"},
    {"ksa-2-2-2-wf", "063b4171af8dc8c2"}, {"is-2-of1", "29caf900af715a50"},
    {"is-2-of2", "29caf900af715a50"},
};

/// lt-3-2-res2: the exhausted approximation search over this
/// terminating subdivision (never reaches admissibility).
struct HeavyCounts {
    std::size_t stages;            // stage complexes C_0 .. C_{k}
    std::size_t last_vertices;     // vertices of the last stage complex
    std::size_t last_facets;       // its top-dimensional simplices
    std::size_t stable_simplices;  // simplices of K(T)
    std::size_t backtracks;        // approximation CSP backtracks
};
inline constexpr HeavyCounts kHeavy = {5, 92128, 478825, 148407, 26};

/// runtime::fuzz at the golden seed: result digests of the two witnesses.
inline constexpr std::uint64_t kFuzzGoldenSeed = 1;
inline constexpr std::size_t kFuzzGoldenIterations = 200;
inline constexpr std::uint64_t kFuzzTableDigest = 0xf19b2b77d60551b9ULL;
inline constexpr std::uint64_t kFuzzLandingDigest = 0xff28c7eb3f663995ULL;

}  // namespace perfbench::goldens
