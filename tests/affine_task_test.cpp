// make_affine_task (Section 4.2): every Delta(t) of the standard affine
// tasks against the per-face scan it replaced, and the diagnostics of the
// subcomplexes L it rejects.
#include <gtest/gtest.h>

#include <string>

#include "affine_restriction_oracle.h"
#include "tasks/standard_tasks.h"

namespace gact::tasks {
namespace {

topo::SubdividedComplex chr(int n, int k) {
    return topo::SubdividedComplex::iterated_chromatic(
        topo::ChromaticComplex::standard_simplex(n), k);
}

/// The message make_affine_task throws for `l`, or "" when it accepts it.
std::string rejection(const topo::SubdividedComplex& chr_k,
                      const SimplicialComplex& l) {
    try {
        make_affine_task("test", chr_k, l);
    } catch (const precondition_error& e) {
        return e.what();
    }
    return "";
}

void expect_images_match_the_scan(const AffineTask& affine) {
    const auto& faces = affine.task.inputs.complex().simplices();
    EXPECT_EQ(affine.task.delta.size(), faces.size()) << affine.task.name;
    for (const Simplex& t : faces) {
        EXPECT_EQ(affine.task.delta.at(t),
                  reference_affine_restriction(affine.subdivision,
                                               affine.l_complex, t))
            << affine.task.name << ", Delta(" << t.to_string() << ")";
    }
}

TEST(AffineTask, ImagesOfLtMatchThePerFaceScan) {
    for (int t = 0; t <= 2; ++t) {
        expect_images_match_the_scan(t_resilience_task(2, t));
    }
    for (int t = 1; t <= 3; ++t) {
        expect_images_match_the_scan(t_resilience_task(3, t));
    }
}

TEST(AffineTask, ImagesOfLordAndImmediateSnapshotMatchThePerFaceScan) {
    expect_images_match_the_scan(total_order_task(2));
    expect_images_match_the_scan(immediate_snapshot_task(2));
    expect_images_match_the_scan(immediate_snapshot_task(3));
}

TEST(AffineTask, AcceptsAFacetOfChrWhoseImagesArePure) {
    // One facet of Chr s spanning the ordered partition ({0,1}, {2}):
    // two vertices on the edge {0,1}, one in the interior.
    const topo::SubdividedComplex chr1 = chr(2, 1);
    const Simplex f = chr1.facet_for_partition(Simplex{0, 1, 2}, {{0, 1}, {2}});
    const AffineTask affine = make_affine_task(
        "one facet", chr1, SimplicialComplex::from_facets({f}));
    EXPECT_EQ(affine.task.validate(), "");
    EXPECT_EQ(affine.task.delta.at(Simplex{0, 1}).facets().size(), 1u);
    EXPECT_TRUE(affine.task.delta.at(Simplex{0}).is_empty());
    expect_images_match_the_scan(affine);
}

TEST(AffineTask, RejectsAnLOutsideChrK) {
    const topo::SubdividedComplex chr1 = chr(2, 1);
    const topo::VertexId past = static_cast<topo::VertexId>(
        chr1.vertex_id_bound());
    EXPECT_EQ(rejection(chr1, SimplicialComplex::from_facets(
                                  {Simplex{past, past + 1, past + 2}})),
              "make_affine_task: L is not a subcomplex of Chr^k s");
}

TEST(AffineTask, RejectsAnLThatIsNotPureOfDimensionN) {
    // A facet of Chr s plus an edge of Chr s that is no face of it.
    const topo::SubdividedComplex chr1 = chr(2, 1);
    const Simplex f = chr1.facets().front();
    const SimplicialComplex& cx = chr1.complex().complex();
    Simplex stray;
    for (const Simplex& e : cx.simplices_of_dimension(1)) {
        if (!e.is_face_of(f)) {
            stray = e;
            break;
        }
    }
    ASSERT_FALSE(stray.empty());
    EXPECT_EQ(rejection(chr1, SimplicialComplex::from_facets({f, stray})),
              "make_affine_task: L is not pure of dimension n");
}

TEST(AffineTask, RejectsAnLWhoseRestrictionToAProperFaceIsNotPure) {
    // The facet of the ordered partition ({0}, {1,2}): the corner 0 and
    // two interior vertices. L ∩ Chr {0,1} is the corner alone, a point
    // where an edge image must be pure of dimension 1.
    const topo::SubdividedComplex chr1 = chr(2, 1);
    const Simplex f = chr1.facet_for_partition(Simplex{0, 1, 2}, {{0}, {1, 2}});
    const std::string message =
        rejection(chr1, SimplicialComplex::from_facets({f}));
    EXPECT_EQ(message.rfind("make_affine_task: L ∩ Chr^k [0 ", 0), 0u)
        << message;
    EXPECT_NE(message.find("] is not pure of dimension 1"), std::string::npos)
        << message;
}

}  // namespace
}  // namespace gact::tasks
