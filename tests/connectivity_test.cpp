#include "topology/connectivity.h"

#include <gtest/gtest.h>

#include "tasks/standard_tasks.h"
#include "topology/homology.h"
#include "topology/subdivision.h"

namespace gact::topo {
namespace {

/// The check as it was before the star incidence: each link built by
/// SimplicialComplex::link, a scan of the whole complex per simplex.
LinkConnectivityReport reference_check(const SimplicialComplex& complex) {
    LinkConnectivityReport report;
    const int n = complex.dimension();
    for (const Simplex& sigma : complex.simplices()) {
        const int required = n - sigma.dimension() - 2;
        if (required <= -2) continue;
        if (!is_k_connected(complex.link(sigma), required)) {
            report.witness = sigma;
            report.required_connectivity = required;
            return report;
        }
    }
    report.link_connected = true;
    return report;
}

void expect_same_report(const SimplicialComplex& complex,
                        const std::string& what) {
    const LinkConnectivityReport got = check_link_connected(complex);
    const LinkConnectivityReport want = reference_check(complex);
    EXPECT_EQ(got.link_connected, want.link_connected) << what;
    EXPECT_EQ(got.witness, want.witness) << what;
    EXPECT_EQ(got.required_connectivity, want.required_connectivity)
        << what;
}

TEST(LinkConnected, SolidTriangle) {
    const SimplicialComplex c =
        SimplicialComplex::from_facets({Simplex{0, 1, 2}});
    // Links: of a vertex, the opposite edge (0-connected ✓); of an edge,
    // the opposite vertex ((-1)-connected ✓); of the triangle, empty
    // ((-2)-connected, vacuous ✓).
    EXPECT_TRUE(is_link_connected(c));
}

TEST(LinkConnected, ChrOfTriangle) {
    const ChromaticComplex s = ChromaticComplex::standard_simplex(2);
    const SubdividedComplex chr =
        SubdividedComplex::identity(s).chromatic_subdivision();
    EXPECT_TRUE(is_link_connected(chr.complex().complex()));
}

TEST(LinkConnected, TwoTrianglesSharingAVertexFail) {
    // The "bowtie": links of the shared vertex are two disjoint edges.
    const SimplicialComplex c =
        SimplicialComplex::from_facets({Simplex{0, 1, 2}, Simplex{2, 3, 4}});
    const LinkConnectivityReport report = check_link_connected(c);
    EXPECT_FALSE(report.link_connected);
    ASSERT_TRUE(report.witness.has_value());
    EXPECT_EQ(*report.witness, Simplex({2}));
    EXPECT_EQ(report.required_connectivity, 0);
}

TEST(LinkConnected, TwoTrianglesSharingAnEdge) {
    const SimplicialComplex c =
        SimplicialComplex::from_facets({Simplex{0, 1, 2}, Simplex{1, 2, 3}});
    EXPECT_TRUE(is_link_connected(c));
}

TEST(LinkConnected, PathGraphIsLinkConnectedAsPure1Complex) {
    // n = 1: links of vertices must be (-1)-connected (non-empty): true for
    // every vertex of a path; link of an edge must be (-2)-connected: vacuous.
    const SimplicialComplex path = SimplicialComplex::from_facets(
        {Simplex{0, 1}, Simplex{1, 2}, Simplex{2, 3}});
    EXPECT_TRUE(is_link_connected(path));
}

TEST(LinkConnected, IsolatedVertexInGraphFails) {
    // An isolated vertex in a 1-dimensional complex has an empty link,
    // which is not (-1)-connected.
    const SimplicialComplex c =
        SimplicialComplex::from_facets({Simplex{0, 1}, Simplex{5}});
    const LinkConnectivityReport report = check_link_connected(c);
    EXPECT_FALSE(report.link_connected);
    ASSERT_TRUE(report.witness.has_value());
    EXPECT_EQ(*report.witness, Simplex({5}));
}

TEST(LinkConnected, ReportToString) {
    const SimplicialComplex c =
        SimplicialComplex::from_facets({Simplex{0, 1, 2}, Simplex{2, 3, 4}});
    const LinkConnectivityReport report = check_link_connected(c);
    EXPECT_NE(report.to_string().find("not link-connected"), std::string::npos);
    const SimplicialComplex good =
        SimplicialComplex::from_facets({Simplex{0, 1, 2}});
    EXPECT_EQ(check_link_connected(good).to_string(), "link-connected");
}

TEST(LinkConnected, VerdictAndWitnessMatchTheFullScan) {
    expect_same_report(SimplicialComplex::from_facets(
                           {Simplex{0, 1, 2}, Simplex{2, 3, 4}}),
                       "bowtie");
    expect_same_report(
        SimplicialComplex::from_facets({Simplex{0, 1}, Simplex{5}}),
        "edge and isolated vertex");
    for (int t = 0; t <= 2; ++t) {
        const tasks::AffineTask lt = tasks::t_resilience_task(2, t);
        expect_same_report(lt.l_complex, lt.task.name);
        for (const Simplex& face : lt.task.inputs.complex().simplices()) {
            expect_same_report(lt.task.delta.at(face),
                               lt.task.name + " Delta(" + face.to_string() +
                                   ")");
        }
    }
    const tasks::AffineTask lord = tasks::total_order_task(2);
    ASSERT_FALSE(reference_check(lord.l_complex).link_connected);
    expect_same_report(lord.l_complex, lord.task.name);
    expect_same_report(tasks::immediate_snapshot_task(2).l_complex, "IS(2)");
}

// The paper's key negative example is checked in tasks tests: the total
// order complex L_ord is not link-connected. Here we exercise the sweep on
// subdivided simplices, which are always link-connected.
class LinkConnectedSweep
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(LinkConnectedSweep, ChrOfSimplexIsLinkConnected) {
    const auto [n, k] = GetParam();
    const ChromaticComplex s = ChromaticComplex::standard_simplex(n);
    const SubdividedComplex chr = SubdividedComplex::iterated_chromatic(s, k);
    EXPECT_TRUE(is_link_connected(chr.complex().complex()));
}

INSTANTIATE_TEST_SUITE_P(Sweep, LinkConnectedSweep,
                         ::testing::Values(std::make_tuple(1, 1),
                                           std::make_tuple(1, 3),
                                           std::make_tuple(2, 1),
                                           std::make_tuple(2, 2)));

}  // namespace
}  // namespace gact::topo
