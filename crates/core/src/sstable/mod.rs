//! Immutable SSTable format: prefix-compressed data blocks with restart
//! points and optional in-block hash indexes, a filter section, an
//! optional range-filter section, a fence-pointer index section, and a
//! self-describing footer — the file layout every LSM engine variant in
//! the tutorial shares.
//!
//! File layout (all sections start on a device-block boundary):
//!
//! ```text
//! [data block 0][data block 1]…[filter][range filter][index][meta+footer]
//! ```

pub mod block;
pub mod builder;
pub mod meta;
pub mod reader;

pub use block::{BlockBuilder, BlockEntry, BlockIter, EntryRef};
pub use builder::TableBuilder;
pub use meta::TableMeta;
pub use reader::{Table, TableIterator, TableProbe};
