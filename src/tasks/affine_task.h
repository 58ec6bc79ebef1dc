// Affine tasks (paper, Section 4.2).
//
// An affine task is the input-less task defined by a pure n-dimensional
// subcomplex L of Chr^k s: the input complex is the standard simplex s,
// the output complex is L, and Delta(t) = L ∩ Chr^k t for every face
// t ⊆ s. Affine tasks are how the paper presents both the total-order
// task L_ord and the t-resilience task L_t.
#pragma once

#include "tasks/task.h"
#include "topology/subdivision.h"

namespace gact::tasks {

/// An affine task, keeping hold of the geometry of its defining complex.
struct AffineTask {
    Task task;
    /// The subdivision Chr^k s the output complex L lives in.
    topo::SubdividedComplex subdivision;
    /// L itself (the output complex, as a subcomplex of the subdivision).
    SimplicialComplex l_complex;

    std::uint32_t num_processes() const { return task.num_processes; }
};

/// Build the affine task of a subcomplex L ⊆ Chr^k s, where the base of
/// `chr_k` is the single simplex s. Checks that L is pure of dimension n
/// and that every L ∩ Chr^k t is empty or pure of dimension dim(t)
/// (Section 4.2), and everything Task::validate checks. Each simplex of L
/// is filed once under its carrier, and Delta(t) is the union of the
/// groups carried by faces of t.
AffineTask make_affine_task(std::string name, topo::SubdividedComplex chr_k,
                            SimplicialComplex l_complex);

}  // namespace gact::tasks
