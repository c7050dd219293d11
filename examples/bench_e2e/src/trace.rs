//! Outside-in tracing: spans recorded by the benchmark around its own calls
//! into each layer, kept in memory and written out when the run ends, plus
//! the counting allocator the traced run arms.
//!
//! A span's *self time* is its duration minus the durations of its child
//! spans. Children are the calls timed on the same inputs as part of a
//! composite: `sgp4.propagate` is a child of `constellation.state_at_into`
//! even though the benchmark runs the two one after the other, because the
//! composite repeats the child's work internally.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// Pass-through allocator that counts allocation events while armed.
/// Reallocation counts as one event; frees are not counted.
pub struct CountingAllocator;

static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are plain statistics.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: forwarded unchanged from the caller, who upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: `ptr` came from `System` through this allocator with `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Starts (or stops) counting allocation events.
pub fn arm_allocator(armed: bool) {
    ARMED.store(armed, Ordering::Relaxed);
}

/// Allocation events counted while armed.
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Identifier of a span; `0` means "no parent".
pub type SpanId = u32;

/// One timed call into a layer.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: SpanId,
    pub parent: SpanId,
    pub name: &'static str,
    /// The workload step (epoch or request index) the call belongs to; the
    /// spans of one step share it.
    pub step: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// The in-memory span recorder of one traced run.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    next_id: SpanId,
}

impl Tracer {
    pub fn new(capacity: usize) -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::with_capacity(capacity),
            next_id: 1,
        }
    }

    /// Reserves an identifier for a composite span whose children are
    /// recorded before the composite itself is timed.
    pub fn reserve(&mut self) -> SpanId {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Times `f` as a fresh span under `parent`.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: SpanId,
        step: u32,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.reserve();
        self.time_as(id, name, parent, step, f)
    }

    /// Times `f` as the span with a previously reserved identifier.
    pub fn time_as<R>(
        &mut self,
        id: SpanId,
        name: &'static str,
        parent: SpanId,
        step: u32,
        f: impl FnOnce() -> R,
    ) -> R {
        let start = Instant::now();
        let result = f();
        let end = Instant::now();
        self.spans.push(Span {
            id,
            parent,
            name,
            step,
            start_ns: start.duration_since(self.origin).as_nanos() as u64,
            end_ns: end.duration_since(self.origin).as_nanos() as u64,
        });
        result
    }

    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    /// `(span, self ns)` of every span from `first_step` on.
    fn self_ns(&self, first_step: u32) -> impl Iterator<Item = (&Span, u64)> {
        let mut child_ns: BTreeMap<SpanId, u64> = BTreeMap::new();
        for span in &self.spans {
            if span.parent != 0 {
                *child_ns.entry(span.parent).or_default() += span.end_ns - span.start_ns;
            }
        }
        self.spans
            .iter()
            .filter(move |s| s.step >= first_step)
            .map(move |span| {
                let children = child_ns.get(&span.id).copied().unwrap_or(0);
                (span, (span.end_ns - span.start_ns).saturating_sub(children))
            })
    }

    /// Per layer name, the self time in nanoseconds summed over the layer's
    /// spans of each step from `first_step` on: one entry per step in which
    /// the layer ran, in step order.
    pub fn self_ns_per_step(&self, first_step: u32) -> BTreeMap<&'static str, Vec<f64>> {
        per_layer(
            self.self_ns(first_step)
                .map(|(span, own)| (span.name, span.step, own)),
        )
    }

    /// Per layer name, the span duration (children included) in nanoseconds
    /// summed per step from `first_step` on.
    pub fn total_ns_per_step(&self, first_step: u32) -> BTreeMap<&'static str, Vec<f64>> {
        per_layer(
            self.spans
                .iter()
                .filter(|s| s.step >= first_step)
                .map(|s| (s.name, s.step, s.end_ns - s.start_ns)),
        )
    }

    /// Per step from `first_step` on, the self time of all its spans
    /// together: what the ledger accounts for in that step.
    pub fn self_ns_sum_per_step(&self, first_step: u32) -> Vec<f64> {
        let mut per_step: BTreeMap<u32, u64> = BTreeMap::new();
        for (span, own) in self.self_ns(first_step) {
            *per_step.entry(span.step).or_default() += own;
        }
        per_step.into_values().map(|ns| ns as f64).collect()
    }

    /// Writes every span as one JSON object per line inside a JSON array.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "[")?;
        for (i, s) in self.spans.iter().enumerate() {
            let comma = if i + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"step\":{},\"start_ns\":{},\"end_ns\":{}}}{comma}",
                s.id, s.parent, s.name, s.step, s.start_ns, s.end_ns
            )?;
        }
        writeln!(out, "]")?;
        out.flush()
    }
}

fn per_layer(
    values: impl Iterator<Item = (&'static str, u32, u64)>,
) -> BTreeMap<&'static str, Vec<f64>> {
    let mut per_step: BTreeMap<(&'static str, u32), u64> = BTreeMap::new();
    for (name, step, ns) in values {
        *per_step.entry((name, step)).or_default() += ns;
    }
    let mut layers: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for ((name, _), ns) in per_step {
        layers.entry(name).or_default().push(ns as f64);
    }
    layers
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_timed_before_the_composite() {
        let mut tracer = Tracer::new(8);
        let composite = tracer.reserve();
        tracer.spans.push(Span {
            id: 9,
            parent: composite,
            name: "child",
            step: 0,
            start_ns: 0,
            end_ns: 30,
        });
        tracer.spans.push(Span {
            id: composite,
            parent: 0,
            name: "whole",
            step: 0,
            start_ns: 40,
            end_ns: 140,
        });
        let own = tracer.self_ns_per_step(0);
        assert_eq!(own["whole"], vec![70.0]);
        assert_eq!(own["child"], vec![30.0]);
        assert_eq!(tracer.total_ns_per_step(0)["whole"], vec![100.0]);
    }
}
