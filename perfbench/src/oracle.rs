//! The correctness oracle: library `Eval` on the same snapshot.
//!
//! A reply is compared with `Eval` of the same rule text, method and seed
//! over the database the server held when it answered. Rows are compared
//! as sorted sets, together with the column names, through a digest the
//! load generator computes as each reply arrives.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use ppr_query::Database;
use ppr_relalg::Value;
use projection_pushing::Eval;

use crate::workload::Read;

/// Order-independent digest of a result: column names plus sorted rows.
pub fn digest(columns: &[String], rows: &[Box<[Value]>]) -> u64 {
    let mut sorted: Vec<&[Value]> = rows.iter().map(|r| &r[..]).collect();
    sorted.sort_unstable();
    let mut h = DefaultHasher::new();
    columns.hash(&mut h);
    sorted.hash(&mut h);
    h.finish()
}

/// The digest library evaluation gives for `read` over `db`, or why it
/// could not be computed.
pub fn expected(read: &Read, db: &Database) -> Result<u64, String> {
    let q = ppr_query::parse_query(&read.request.query).map_err(|e| e.to_string())?;
    let (rel, _) = Eval::new(&q, db)
        .method(read.request.method)
        .seed(read.seed())
        .run()
        .map_err(|e| e.to_string())?;
    let columns: Vec<String> = q.free.iter().map(|&v| q.vars.name(v)).collect();
    Ok(digest(&columns, rel.tuples()))
}
