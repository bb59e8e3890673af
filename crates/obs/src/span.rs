//! Hierarchical wall-time spans with deterministic tree reconstruction.
//!
//! A span measures one phase of a run (`analyze` → `characterize` →
//! per-cell children, …) on the monotonic clock. Spans form an explicit
//! tree: children are created *from* their parent guard rather than
//! through thread-local ambient state, so the hierarchy — and therefore
//! the manifest's span tree — is a function of the call structure alone,
//! never of thread scheduling.
//!
//! Recording is two-phase, mirroring the deterministic path merge of the
//! parallel enumerator: hot sections record finished spans into a
//! [`LocalSpans`] buffer they own exclusively (no locks, no atomics beyond
//! the id counter), and the buffer is absorbed into the shared recorder
//! once, at a natural merge point. Each span carries an explicit ordinal
//! within its parent; [`build_tree`] sorts children by `(ord, id)`, so the
//! reconstructed tree is identical no matter which worker finished first.

use std::cell::Cell;

use serde::{Deserialize, Serialize};

use crate::recorder::Observer;

/// A finished span as stored in the recorder buffer.
#[derive(Clone, Debug)]
pub(crate) struct SpanRecord {
    /// Unique id (allocated from the recorder's atomic counter, > 0).
    pub id: u64,
    /// Parent span id (0 = root).
    pub parent: u64,
    /// Position among the parent's children (sort key before `id`).
    pub ord: u64,
    /// Static span name (dotted-path convention, e.g. `enumerate.search`).
    pub name: &'static str,
    /// Key/value attributes (circuit name, corner, …).
    pub attrs: Vec<(&'static str, String)>,
    /// Start offset from the recorder epoch, ns (monotonic clock).
    pub start_ns: u64,
    /// Wall-clock duration, ns.
    pub duration_ns: u64,
}

/// One node of the reconstructed span tree, as serialized into the run
/// manifest.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SpanNode {
    /// Span name.
    pub name: String,
    /// Key/value attributes.
    pub attrs: std::collections::BTreeMap<String, String>,
    /// Start offset from the run epoch, ns.
    pub start_ns: u64,
    /// Duration, ns.
    pub duration_ns: u64,
    /// Child spans in deterministic `(ord, id)` order.
    pub children: Vec<SpanNode>,
}

impl SpanNode {
    /// The tree's *structure* — names and nesting, with every duration and
    /// attribute value erased. Two runs of the same request produce equal
    /// structures regardless of thread count or machine speed; the
    /// observability golden tests pin exactly this.
    pub fn structure(&self) -> String {
        let mut out = String::new();
        self.write_structure(&mut out);
        out
    }

    fn write_structure(&self, out: &mut String) {
        out.push_str(&self.name);
        if !self.children.is_empty() {
            out.push('(');
            for (i, c) in self.children.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                c.write_structure(out);
            }
            out.push(')');
        }
    }
}

/// Builds the deterministic span forest from a flat record buffer.
pub(crate) fn build_tree(mut records: Vec<SpanRecord>) -> Vec<SpanNode> {
    records.sort_by_key(|r| (r.parent, r.ord, r.id));
    // Children buckets per parent id, already in deterministic order.
    let mut order: Vec<u64> = Vec::with_capacity(records.len());
    let mut by_parent: std::collections::HashMap<u64, Vec<SpanRecord>> =
        std::collections::HashMap::new();
    for r in records {
        if !by_parent.contains_key(&r.parent) {
            order.push(r.parent);
        }
        by_parent.entry(r.parent).or_default().push(r);
    }
    fn assemble(
        parent: u64,
        by_parent: &mut std::collections::HashMap<u64, Vec<SpanRecord>>,
    ) -> Vec<SpanNode> {
        let Some(children) = by_parent.remove(&parent) else {
            return Vec::new();
        };
        children
            .into_iter()
            .map(|r| SpanNode {
                name: r.name.to_string(),
                attrs: r
                    .attrs
                    .iter()
                    .map(|(k, v)| (k.to_string(), v.clone()))
                    .collect(),
                start_ns: r.start_ns,
                duration_ns: r.duration_ns,
                children: assemble(r.id, by_parent),
            })
            .collect()
    }
    let mut roots = assemble(0, &mut by_parent);
    // Orphans (a parent guard still open when the tree was snapshotted)
    // surface as additional roots rather than vanishing.
    while let Some(&p) = by_parent.keys().min() {
        roots.extend(assemble(p, &mut by_parent));
    }
    roots
}

/// An open span. Records itself into the observer when dropped (or via
/// [`SpanGuard::end`]); disabled observers hand out inert guards whose
/// whole lifecycle is a few branches.
pub struct SpanGuard {
    pub(crate) obs: Observer,
    /// 0 on disabled observers.
    pub(crate) id: u64,
    pub(crate) parent: u64,
    pub(crate) ord: u64,
    pub(crate) name: &'static str,
    pub(crate) attrs: Vec<(&'static str, String)>,
    pub(crate) start_ns: u64,
    /// Next child ordinal (implicit ordering for single-thread children).
    pub(crate) next_ord: Cell<u64>,
    pub(crate) ended: Cell<bool>,
}

impl SpanGuard {
    /// The span id — pass to [`LocalSpans::time`] to parent cross-thread
    /// children deterministically. 0 when the observer is disabled.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Opens a child span (implicitly ordered after earlier children).
    pub fn child(&self, name: &'static str) -> SpanGuard {
        self.child_with(name, Vec::new())
    }

    /// Opens a child span carrying attributes.
    pub fn child_with(&self, name: &'static str, attrs: Vec<(&'static str, String)>) -> SpanGuard {
        let ord = self.next_ord.get();
        self.next_ord.set(ord + 1);
        self.obs.open_span(self.id, ord, name, attrs)
    }

    /// Ends the span now (otherwise `Drop` does).
    pub fn end(self) {}
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if self.ended.replace(true) || self.id == 0 {
            return;
        }
        let record = SpanRecord {
            id: self.id,
            parent: self.parent,
            ord: self.ord,
            name: self.name,
            attrs: std::mem::take(&mut self.attrs),
            start_ns: self.start_ns,
            duration_ns: self.obs.now_ns().saturating_sub(self.start_ns),
        };
        self.obs.push_record(record);
    }
}

/// A per-thread (well: per-owner) span buffer for hot parallel sections.
/// Recording appends to a plain `Vec` the owner holds exclusively;
/// [`LocalSpans::flush`] (also called on drop) locks the shared recorder
/// once and hands the whole batch over.
pub struct LocalSpans {
    pub(crate) obs: Observer,
    pub(crate) buf: Vec<SpanRecord>,
}

impl LocalSpans {
    /// Times `f` as a span under `parent` (a [`SpanGuard::id`]) at the
    /// explicit ordinal `ord`. The ordinal is the caller's shard index
    /// (cell index, task sequence number, …), which is what makes the
    /// merged tree independent of which worker ran the shard.
    pub fn time<R>(
        &mut self,
        parent: u64,
        ord: u64,
        name: &'static str,
        attrs: Vec<(&'static str, String)>,
        f: impl FnOnce() -> R,
    ) -> R {
        if !self.obs.is_enabled() {
            return f();
        }
        let start_ns = self.obs.now_ns();
        let out = f();
        self.buf.push(SpanRecord {
            id: self.obs.alloc_id(),
            parent,
            ord,
            name,
            attrs,
            start_ns,
            duration_ns: self.obs.now_ns().saturating_sub(start_ns),
        });
        out
    }

    /// Like [`LocalSpans::time`], but hands `f` the id of the span being
    /// recorded so it can record *children* under it (again at explicit,
    /// caller-chosen ordinals). This is what gives a multi-worker batch
    /// a deterministic span subtree per job: the job's (parent, ord) pair
    /// comes from its submission index, never from which worker ran it or
    /// when.
    pub fn time_tree<R>(
        &mut self,
        parent: u64,
        ord: u64,
        name: &'static str,
        attrs: Vec<(&'static str, String)>,
        f: impl FnOnce(&mut LocalSpans, u64) -> R,
    ) -> R {
        if !self.obs.is_enabled() {
            return f(self, 0);
        }
        let id = self.obs.alloc_id();
        let start_ns = self.obs.now_ns();
        let out = f(self, id);
        self.buf.push(SpanRecord {
            id,
            parent,
            ord,
            name,
            attrs,
            start_ns,
            duration_ns: self.obs.now_ns().saturating_sub(start_ns),
        });
        out
    }

    /// Merges the buffered spans into the shared recorder (one lock).
    pub fn flush(&mut self) {
        if !self.buf.is_empty() {
            self.obs.push_records(std::mem::take(&mut self.buf));
        }
    }
}

impl Drop for LocalSpans {
    fn drop(&mut self) {
        self.flush();
    }
}
