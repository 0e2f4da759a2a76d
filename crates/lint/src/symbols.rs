//! Workspace symbol table and cross-file item graph.
//!
//! The structural rules need to connect items that live in different
//! files of the same crate: a `struct FooStats` in `stats.rs` and the
//! `impl FooStats` carrying `merge` in `merge.rs` (D9), or every
//! `static mut` across a crate (D8). This module parses every file's
//! items once and indexes them two ways — type definitions by name and
//! `impl` blocks by self-type name — pairing them only **within one
//! crate**, because two crates may legitimately define types with the
//! same short name and a cross-crate edge would invent a relationship
//! the compiler never sees.

use std::collections::BTreeMap;

use crate::items::{parse_items, Item, ItemKind};
use crate::scan::SourceFile;

/// Stable handle to one item: file index plus the path of child
/// indices from the file's top level down to the item.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct NodeId {
    pub file: usize,
    pub path: Vec<usize>,
}

/// Parsed items of one file, kept alongside its scan model.
pub struct FileItems {
    /// Index into the workspace file list this was parsed from.
    pub file: usize,
    pub items: Vec<Item>,
}

/// The cross-file item graph for one workspace scan.
pub struct ItemGraph {
    pub files: Vec<FileItems>,
    /// Type definitions (struct/enum/union/trait) by declared name.
    /// Multiple entries when the same short name exists in several
    /// crates (or several modules of one crate).
    pub type_defs: BTreeMap<String, Vec<NodeId>>,
    /// `impl` blocks by self-type last path segment.
    pub impls: BTreeMap<String, Vec<NodeId>>,
}

impl ItemGraph {
    /// Parses every file's items and builds the name indexes.
    pub fn build(files: &[SourceFile]) -> ItemGraph {
        let mut graph = ItemGraph {
            files: Vec::with_capacity(files.len()),
            type_defs: BTreeMap::new(),
            impls: BTreeMap::new(),
        };
        for (fi, f) in files.iter().enumerate() {
            let items = parse_items(f);
            index_items(
                &items,
                fi,
                &mut Vec::new(),
                &mut graph.type_defs,
                &mut graph.impls,
            );
            graph.files.push(FileItems { file: fi, items });
        }
        graph
    }

    /// Resolves a node id back to its item.
    pub fn item(&self, id: &NodeId) -> &Item {
        let mut items = &self.files[id.file].items;
        let mut item = &items[id.path[0]];
        for &step in &id.path[1..] {
            items = &item.children;
            item = &items[step];
        }
        item
    }

    /// All `impl` blocks for type `name` that live in the same crate
    /// as the defining file — inherent and trait impls alike.
    pub fn impls_of<'a>(
        &'a self,
        name: &str,
        files: &[SourceFile],
        def_file: usize,
    ) -> Vec<&'a NodeId> {
        let def_crate = files[def_file].class.crate_name.as_deref();
        self.impls
            .get(name)
            .map(|ids| {
                ids.iter()
                    .filter(|id| files[id.file].class.crate_name.as_deref() == def_crate)
                    .collect()
            })
            .unwrap_or_default()
    }
}

fn index_items(
    items: &[Item],
    file: usize,
    path: &mut Vec<usize>,
    type_defs: &mut BTreeMap<String, Vec<NodeId>>,
    impls: &mut BTreeMap<String, Vec<NodeId>>,
) {
    for (i, item) in items.iter().enumerate() {
        path.push(i);
        let id = || NodeId {
            file,
            path: path.clone(),
        };
        match item.kind {
            ItemKind::Struct | ItemKind::Enum | ItemKind::Union | ItemKind::Trait
                if !item.name.is_empty() =>
            {
                type_defs.entry(item.name.clone()).or_default().push(id());
            }
            ItemKind::Impl => {
                if let Some(ty) = &item.self_ty {
                    impls.entry(ty.clone()).or_default().push(id());
                }
            }
            _ => {}
        }
        index_items(&item.children, file, path, type_defs, impls);
        path.pop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn file(rel: &str, src: &str) -> SourceFile {
        SourceFile::parse(PathBuf::from(rel), rel.to_string(), src.to_string())
    }

    #[test]
    fn cross_file_impl_pairing_stays_within_a_crate() {
        let files = vec![
            file("crates/dram/src/stats.rs", "pub struct S { pub a: u64 }\n"),
            file(
                "crates/dram/src/merge.rs",
                "impl S { pub fn merge(&mut self, other: &Self) { self.a += other.a; } }\n",
            ),
            file(
                "crates/cache/src/other.rs",
                "pub struct S { pub b: u64 }\nimpl S { fn zap(&mut self) {} }\n",
            ),
        ];
        let g = ItemGraph::build(&files);
        let defs = &g.type_defs["S"];
        assert_eq!(defs.len(), 2, "one S per crate");
        // The dram-crate S pairs only with the dram-crate impl.
        let dram_def = defs.iter().find(|id| id.file == 0).unwrap();
        let imps = g.impls_of("S", &files, dram_def.file);
        assert_eq!(imps.len(), 1);
        assert_eq!(imps[0].file, 1);
        let imp = g.item(imps[0]);
        assert_eq!(imp.children[0].name, "merge");
    }

    #[test]
    fn nested_items_get_path_ids() {
        let files = vec![file(
            "crates/core/src/x.rs",
            "mod inner { pub struct Deep { x: u64 } impl Deep { fn f(&self) {} } }\n",
        )];
        let g = ItemGraph::build(&files);
        let id = &g.type_defs["Deep"][0];
        assert_eq!(id.path.len(), 2, "struct sits one level down");
        assert_eq!(g.item(id).name, "Deep");
        let imp = g.item(g.impls_of("Deep", &files, 0)[0]);
        assert_eq!(imp.children[0].name, "f");
    }
}
