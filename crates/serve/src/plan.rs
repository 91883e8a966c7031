//! The flush's coalescing math, as a pure function.
//!
//! Splitting the plan out of the worker loop keeps the part of the
//! system that is easy to get subtly wrong — offsets, lengths, grouping —
//! free of any concurrency, so the property tests in
//! `tests/batcher_props.rs` can hammer it directly: for arbitrary job
//! sequences the spans of each group must partition that group's packed
//! buffer exactly, scatter-back must be a bijection on jobs, and no group
//! may mix functions (and therefore coefficient tables).

use crate::registry::FunctionId;

/// Where one job's elements live inside its group's packed buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobSpan {
    /// Index of the job in the drained submission-order job list.
    pub job: usize,
    /// Offset of the job's first element in the packed buffer.
    pub offset: usize,
    /// Element count (zero-length jobs are legal and occupy no space).
    pub len: usize,
}

/// One function's share of a flush: the jobs to pack, in submission
/// order, and the packed buffer's total length.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupPlan {
    /// The function every job in this group targets.
    pub func: FunctionId,
    /// Total packed elements (`Σ spans.len`).
    pub total: usize,
    /// Per-job spans; offsets ascend and tile `0..total` exactly.
    pub spans: Vec<JobSpan>,
}

/// The full coalescing plan for one flush: one group per distinct
/// function, groups ordered by first appearance, jobs within a group in
/// submission order (FIFO per function).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlushPlan {
    /// Per-function groups.
    pub groups: Vec<GroupPlan>,
}

impl FlushPlan {
    /// Builds the plan for `jobs`, given as `(function, element count)`
    /// in submission order.
    pub fn build(jobs: &[(FunctionId, usize)]) -> Self {
        let mut groups: Vec<GroupPlan> = Vec::new();
        for (job, &(func, len)) in jobs.iter().enumerate() {
            let group = match groups.iter_mut().find(|g| g.func == func) {
                Some(g) => g,
                None => {
                    groups.push(GroupPlan {
                        func,
                        total: 0,
                        spans: Vec::new(),
                    });
                    groups.last_mut().expect("just pushed")
                }
            };
            group.spans.push(JobSpan {
                job,
                offset: group.total,
                len,
            });
            group.total += len;
        }
        Self { groups }
    }

    /// Total elements across every group.
    pub fn total_elements(&self) -> usize {
        self.groups.iter().map(|g| g.total).sum()
    }

    /// Total jobs across every group.
    pub fn total_jobs(&self) -> usize {
        self.groups.iter().map(|g| g.spans.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const F0: FunctionId = FunctionId(0);
    const F1: FunctionId = FunctionId(1);

    #[test]
    fn empty_plan() {
        let plan = FlushPlan::build(&[]);
        assert!(plan.groups.is_empty());
        assert_eq!(plan.total_elements(), 0);
        assert_eq!(plan.total_jobs(), 0);
    }

    #[test]
    fn interleaved_functions_group_in_fifo_order() {
        let jobs = [(F0, 3), (F1, 5), (F0, 0), (F1, 2), (F0, 7)];
        let plan = FlushPlan::build(&jobs);
        assert_eq!(plan.groups.len(), 2);
        let g0 = &plan.groups[0];
        assert_eq!(g0.func, F0);
        assert_eq!(g0.total, 10);
        assert_eq!(
            g0.spans,
            vec![
                JobSpan {
                    job: 0,
                    offset: 0,
                    len: 3
                },
                JobSpan {
                    job: 2,
                    offset: 3,
                    len: 0
                },
                JobSpan {
                    job: 4,
                    offset: 3,
                    len: 7
                },
            ]
        );
        let g1 = &plan.groups[1];
        assert_eq!(g1.func, F1);
        assert_eq!(g1.total, 7);
        assert_eq!(plan.total_jobs(), jobs.len());
        assert_eq!(plan.total_elements(), 17);
    }
}
