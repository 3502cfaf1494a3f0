//! Approximate cross-crate call graph and the panic-reachability pass.
//!
//! Nodes are the functions extracted by [`crate::items`]; edges are calls
//! resolved by name and by the kind of call:
//!
//! * `Type::name(…)` links to the function whose qualified name matches;
//!   `Self::name(…)` does the same with the caller's impl type.
//! * `.name(…)` links to every function with that simple name and a
//!   `self` receiver — a method call cannot reach a free function.
//! * `name(…)` and lowercase `module::name(…)` link only to free
//!   functions of that name: those in `module.rs` (or `module/mod.rs`)
//!   when the path names such a file, else the caller's file's own
//!   non-test ones when it has any, else every free function of that
//!   name.
//!
//! Within a kind, resolution stays permissive. Over-approximation is the
//! right direction for a reachability lint — a spurious edge can only make
//! the pass more conservative, never hide a panic path.
//!
//! The pass reports each non-test function containing an **unguarded**
//! panic site (see [`crate::items::Site`]) that is reachable from an
//! unrestricted `pub` function, together with one shortest call chain from
//! such a `pub` root (found by reverse BFS from the offending function).

use crate::items::{Call, FnInfo};
use std::collections::{HashMap, VecDeque};

/// The assembled workspace call graph.
#[derive(Debug)]
pub struct CallGraph {
    /// All functions, workspace-wide.
    pub fns: Vec<FnInfo>,
    /// `callers[i]` = indices of functions that call `fns[i]`.
    pub callers: Vec<Vec<usize>>,
}

/// One panic-reachability finding.
#[derive(Debug, Clone)]
pub struct PanicPath {
    /// Index of the offending function in [`CallGraph::fns`].
    pub offender: usize,
    /// Call chain from a `pub` root to the offender, as indices
    /// (`chain[0]` is the root, last element is the offender; a chain of
    /// length one means the offender itself is `pub`).
    pub chain: Vec<usize>,
    /// Unguarded site summary, e.g. `"index@41, div@44"`.
    pub sites: String,
}

/// Builds the call graph from every extracted function.
#[must_use]
pub fn build(fns: Vec<FnInfo>) -> CallGraph {
    // Qualified: "Type::name" → idxs. Methods and free functions by
    // simple name.
    let mut by_qual: HashMap<&str, Vec<usize>> = HashMap::new();
    let mut methods: HashMap<&str, Vec<usize>> = HashMap::new();
    let mut free: HashMap<&str, Vec<usize>> = HashMap::new();
    for (i, f) in fns.iter().enumerate() {
        by_qual.entry(f.qual.as_str()).or_default().push(i);
        if f.has_self {
            methods.entry(f.name.as_str()).or_default().push(i);
        } else if f.qual == f.name {
            free.entry(f.name.as_str()).or_default().push(i);
        }
    }
    let lookup = |map: &HashMap<&str, Vec<usize>>, key: &str| -> Vec<usize> {
        map.get(key).cloned().unwrap_or_default()
    };

    let mut callers: Vec<Vec<usize>> = vec![Vec::new(); fns.len()];
    for (caller, f) in fns.iter().enumerate() {
        for call in &f.calls {
            let targets = match call.qual.as_deref() {
                _ if call.method => lookup(&methods, &call.name),
                Some("Self") => f
                    .qual
                    .strip_suffix(&format!("::{}", f.name))
                    .map(|ty| lookup(&by_qual, &format!("{ty}::{}", call.name)))
                    .unwrap_or_default(),
                Some(q) if q.starts_with(|c: char| c.is_ascii_uppercase()) => {
                    lookup(&by_qual, &format!("{q}::{}", call.name))
                }
                _ => free_targets(&fns, f, call, lookup(&free, &call.name)),
            };
            for t in targets {
                if t != caller && !callers[t].contains(&caller) {
                    callers[t].push(caller);
                }
            }
        }
    }
    CallGraph { fns, callers }
}

/// Narrows the free functions named like a bare or module-qualified
/// `call` made by `caller`: those of the named module's file, else the
/// caller's file's own non-test ones, else all of them.
fn free_targets(fns: &[FnInfo], caller: &FnInfo, call: &Call, all: Vec<usize>) -> Vec<usize> {
    let module_file = |file: &str| {
        call.qual.as_deref().is_some_and(|m| {
            file.ends_with(&format!("/{m}.rs")) || file.ends_with(&format!("/{m}/mod.rs"))
        })
    };
    let narrow = |keep: &dyn Fn(&FnInfo) -> bool| -> Vec<usize> {
        all.iter().copied().filter(|&i| keep(&fns[i])).collect()
    };
    let in_module = narrow(&|f| module_file(&f.file));
    let local = narrow(&|f| f.file == caller.file && !f.in_test);
    [in_module, local]
        .into_iter()
        .find(|narrowed| !narrowed.is_empty())
        .unwrap_or(all)
}

/// Runs the panic-reachability pass: one [`PanicPath`] per non-test
/// function with unguarded sites that a `pub` API can reach.
#[must_use]
pub fn panic_reachability(graph: &CallGraph) -> Vec<PanicPath> {
    let mut out = Vec::new();
    for (i, f) in graph.fns.iter().enumerate() {
        if f.in_test {
            continue;
        }
        let unguarded: Vec<String> = f
            .sites
            .iter()
            .filter(|s| !s.guarded)
            .map(|s| format!("{}@{}", s.kind.key(), s.line))
            .collect();
        if unguarded.is_empty() {
            continue;
        }
        if let Some(chain) = shortest_pub_chain(graph, i) {
            out.push(PanicPath {
                offender: i,
                chain,
                sites: unguarded.join(", "),
            });
        }
    }
    out
}

/// Reverse BFS from `start` over caller edges; returns the shortest chain
/// `pub root → … → start`, or `None` when no `pub` function reaches it.
fn shortest_pub_chain(graph: &CallGraph, start: usize) -> Option<Vec<usize>> {
    if graph.fns[start].is_pub {
        return Some(vec![start]);
    }
    let mut parent: HashMap<usize, usize> = HashMap::new();
    let mut queue = VecDeque::from([start]);
    while let Some(node) = queue.pop_front() {
        for &caller in &graph.callers[node] {
            if caller == start || parent.contains_key(&caller) {
                continue;
            }
            if graph.fns[caller].in_test {
                continue;
            }
            parent.insert(caller, node);
            if graph.fns[caller].is_pub {
                // Reconstruct root → start.
                let mut chain = vec![caller];
                let mut cur = caller;
                while let Some(&next) = parent.get(&cur) {
                    chain.push(next);
                    if next == start {
                        break;
                    }
                    cur = next;
                }
                return Some(chain);
            }
            queue.push_back(caller);
        }
    }
    None
}

/// Renders a chain as `a -> b -> c` using qualified names.
#[must_use]
pub fn render_chain(graph: &CallGraph, chain: &[usize]) -> String {
    chain
        .iter()
        .map(|&i| graph.fns[i].qual.clone())
        .collect::<Vec<_>>()
        .join(" -> ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::items::extract;
    use crate::scanner::analyze;

    fn graph_of(src: &str) -> CallGraph {
        build(extract("t.rs", &analyze(src)))
    }

    #[test]
    fn pub_fn_with_unguarded_index_is_direct() {
        let g = graph_of("pub fn api(v: &[f64]) -> f64 { v[0] }");
        let paths = panic_reachability(&g);
        assert_eq!(paths.len(), 1);
        assert_eq!(paths[0].chain.len(), 1);
        assert!(paths[0].sites.contains("index@"));
    }

    #[test]
    fn private_offender_reached_through_pub_caller() {
        let src = "pub fn api(v: &[f64]) -> f64 { inner(v) }\n\
                   fn inner(v: &[f64]) -> f64 { v[0] }";
        let g = graph_of(src);
        let paths = panic_reachability(&g);
        assert_eq!(paths.len(), 1);
        assert_eq!(render_chain(&g, &paths[0].chain), "api -> inner");
    }

    #[test]
    fn unreachable_private_offender_is_silent() {
        let g = graph_of("fn orphan(v: &[f64]) -> f64 { v[0] }");
        assert!(panic_reachability(&g).is_empty());
    }

    #[test]
    fn guarded_sites_do_not_fire() {
        let g = graph_of("pub fn api(v: &[f64], i: usize) -> f64 { assert!(i < v.len()); v[i] }");
        assert!(panic_reachability(&g).is_empty());
    }

    #[test]
    fn qualified_calls_resolve_to_methods() {
        let src = "impl Matrix {\n  fn raw(&self, i: usize) -> f64 { self.data[i] }\n}\n\
                   pub fn api(m: &Matrix) -> f64 { Matrix::raw(m, 0) }";
        let g = graph_of(src);
        let paths = panic_reachability(&g);
        assert_eq!(paths.len(), 1);
        assert_eq!(render_chain(&g, &paths[0].chain), "api -> Matrix::raw");
    }

    #[test]
    fn test_callers_do_not_count_as_roots() {
        let src = "#[cfg(test)]\nmod tests {\n  pub fn t(v: &[f64]) -> f64 { inner(v) }\n}\n\
                   fn inner(v: &[f64]) -> f64 { v[0] }";
        let g = graph_of(src);
        assert!(panic_reachability(&g).is_empty());
    }

    #[test]
    fn chain_is_shortest() {
        // Two routes to `deep`: api -> a -> deep and api2 -> deep.
        let src = "pub fn api(v: &[f64]) -> f64 { a(v) }\n\
                   fn a(v: &[f64]) -> f64 { deep(v) }\n\
                   pub fn api2(v: &[f64]) -> f64 { deep(v) }\n\
                   fn deep(v: &[f64]) -> f64 { v[0] }";
        let g = graph_of(src);
        let paths = panic_reachability(&g);
        assert_eq!(paths.len(), 1);
        assert_eq!(paths[0].chain.len(), 2, "BFS must find the 2-hop route");
    }
}
