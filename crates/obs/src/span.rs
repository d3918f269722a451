//! Hierarchical, thread-aware spans.
//!
//! A span is opened with [`span`] (parent = the innermost span open on
//! the calling thread) or [`span_child`] (explicit parent, for work
//! submitted to another thread) and closed by dropping the returned
//! [`SpanGuard`]. Each thread keeps its own stack of open spans, so
//! nesting on one thread needs no synchronization; completed spans are
//! appended to a process-wide list in completion order, which for RAII
//! guards means every child precedes its parent in the export.
//!
//! When [`crate::enabled`] is false, [`span`] returns a no-op guard
//! after a single relaxed atomic load: no clock read, no id allocation,
//! no thread-local touch.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

use crate::metrics::Histogram;

/// A completed span as recorded for export.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Process-unique span id (1-based; ids are allocation-ordered and
    /// therefore race-dependent across threads — trace *structure*, not
    /// ids, is the deterministic part).
    pub id: u64,
    /// Parent span id, if any.
    pub parent: Option<u64>,
    /// Static span name (e.g. `par.chunk`, `mc.replication`).
    pub name: &'static str,
    /// Dense ordinal of the recording thread (first-touch order).
    pub thread: u64,
    /// Start time, nanoseconds since the process clock epoch.
    pub start_ns: u64,
    /// End time, nanoseconds since the process clock epoch.
    pub end_ns: u64,
}

impl SpanRecord {
    /// The span's duration in nanoseconds.
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static FINISHED: Mutex<Vec<SpanRecord>> = Mutex::new(Vec::new());

thread_local! {
    /// The calling thread's stack of open span ids.
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

struct ActiveSpan {
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    start_ns: u64,
    histogram: Option<&'static Histogram>,
}

/// RAII guard for an open span; dropping it records the span. When
/// observability is disabled this is a no-op shell (no fields set, no
/// work on drop beyond a null check).
pub struct SpanGuard(Option<ActiveSpan>);

impl SpanGuard {
    /// The open span's id, or `None` for a disabled no-op guard. Pass
    /// this across threads as the explicit parent for [`span_child`].
    #[must_use]
    pub fn id(&self) -> Option<u64> {
        self.0.as_ref().map(|a| a.id)
    }

    /// Additionally records the span's duration into `h` on drop.
    #[must_use]
    pub fn with_histogram(mut self, h: &'static Histogram) -> Self {
        if let Some(active) = self.0.as_mut() {
            active.histogram = Some(h);
        }
        self
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(active) = self.0.take() else {
            return;
        };
        let end_ns = crate::now_ns();
        OPEN.with(|open| {
            let mut open = open.borrow_mut();
            // Guards drop in LIFO order under normal control flow; the
            // position search keeps the stack consistent even if a
            // guard was moved out of its lexical scope.
            if let Some(pos) = open.iter().rposition(|&id| id == active.id) {
                open.remove(pos);
            }
        });
        let record = SpanRecord {
            id: active.id,
            parent: active.parent,
            name: active.name,
            thread: crate::metrics::ordinal(),
            start_ns: active.start_ns,
            end_ns,
        };
        if let Some(h) = active.histogram {
            h.record_ns(record.duration_ns());
        }
        FINISHED
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(record);
    }
}

/// Opens a span whose parent is the innermost span already open on the
/// calling thread. Returns a no-op guard when observability is
/// disabled.
#[must_use]
pub fn span(name: &'static str) -> SpanGuard {
    if !crate::enabled() {
        return SpanGuard(None);
    }
    open_span(name, OPEN.with(|open| open.borrow().last().copied()))
}

/// Opens a span with an explicit parent id — the cross-thread form.
/// The submitting thread captures [`current_span`] before handing work
/// to a pool; each worker opens its span with that id, so the trace
/// tree nests worker spans under the submitting span even though the
/// thread-local stacks are unrelated. Within the worker, the new span
/// still lands on the worker's own stack, so further nested [`span`]
/// calls parent onto it naturally.
#[must_use]
pub fn span_child(name: &'static str, parent: Option<u64>) -> SpanGuard {
    if !crate::enabled() {
        return SpanGuard(None);
    }
    open_span(name, parent)
}

fn open_span(name: &'static str, parent: Option<u64>) -> SpanGuard {
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    OPEN.with(|open| open.borrow_mut().push(id));
    SpanGuard(Some(ActiveSpan {
        id,
        parent,
        name,
        start_ns: crate::now_ns(),
        histogram: None,
    }))
}

/// The innermost span open on the calling thread, if observability is
/// enabled and one is open. Capture this before submitting work to
/// another thread and pass it to [`span_child`].
#[must_use]
pub fn current_span() -> Option<u64> {
    if !crate::enabled() {
        return None;
    }
    OPEN.with(|open| open.borrow().last().copied())
}

/// A copy of every completed span, in completion order.
#[must_use]
pub fn finished_spans() -> Vec<SpanRecord> {
    FINISHED
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .clone()
}

/// Discards all completed spans (open spans are unaffected and will
/// record on drop as usual).
pub fn reset_spans() {
    FINISHED
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .clear();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn my_spans(names: &[&str]) -> Vec<SpanRecord> {
        finished_spans()
            .into_iter()
            .filter(|s| names.contains(&s.name))
            .collect()
    }

    #[test]
    fn disabled_spans_are_noops() {
        let _guard = crate::test_lock::hold();
        crate::set_enabled(false);
        let g = span("test.span.disabled");
        assert_eq!(g.id(), None);
        assert_eq!(current_span(), None);
        drop(g);
        assert!(my_spans(&["test.span.disabled"]).is_empty());
    }

    #[test]
    fn nesting_on_one_thread_sets_parents() {
        let _guard = crate::test_lock::hold();
        crate::set_enabled(true);
        {
            let outer = span("test.span.outer");
            let outer_id = outer.id().expect("enabled");
            assert_eq!(current_span(), Some(outer_id));
            {
                let inner = span("test.span.inner");
                assert_eq!(current_span(), inner.id());
            }
            // Popped back to the outer span after the inner guard drops.
            assert_eq!(current_span(), Some(outer_id));
        }
        let spans = my_spans(&["test.span.outer", "test.span.inner"]);
        let outer = spans
            .iter()
            .find(|s| s.name == "test.span.outer")
            .expect("recorded");
        let inner = spans
            .iter()
            .find(|s| s.name == "test.span.inner")
            .expect("recorded");
        assert_eq!(inner.parent, Some(outer.id));
        assert!(outer.start_ns <= inner.start_ns);
        assert!(inner.end_ns <= outer.end_ns);
        crate::set_enabled(false);
    }

    #[test]
    fn cross_thread_children_parent_onto_the_submitting_span() {
        let _guard = crate::test_lock::hold();
        crate::set_enabled(true);
        let root = span("test.span.submit");
        let parent = root.id();
        std::thread::scope(|scope| {
            // Simulating a pool worker.
            scope.spawn(move || {
                let worker = span_child("test.span.worker", parent);
                // The worker's own stack now has the child on top, so a
                // plain span() nests under it.
                let nested = span("test.span.nested");
                assert_eq!(current_span(), nested.id());
                drop(nested);
                drop(worker);
            });
        });
        drop(root);
        let spans = my_spans(&["test.span.submit", "test.span.worker", "test.span.nested"]);
        let root = spans
            .iter()
            .find(|s| s.name == "test.span.submit")
            .expect("recorded");
        let worker = spans
            .iter()
            .find(|s| s.name == "test.span.worker")
            .expect("recorded");
        let nested = spans
            .iter()
            .find(|s| s.name == "test.span.nested")
            .expect("recorded");
        assert_eq!(worker.parent, Some(root.id));
        assert_eq!(nested.parent, Some(worker.id));
        assert_ne!(worker.thread, root.thread);
        crate::set_enabled(false);
    }

    #[test]
    fn histogram_attachment_records_duration() {
        let _guard = crate::test_lock::hold();
        crate::set_enabled(true);
        static SPAN_NS: Histogram = Histogram::new("test.span.hist_ns");
        SPAN_NS.reset();
        {
            let _g = span("test.span.timed").with_histogram(&SPAN_NS);
        }
        assert_eq!(SPAN_NS.count(), 1);
        crate::set_enabled(false);
    }
}
