//! Statistics-cache persistence.
//!
//! The cost vector database is the mediator's accumulated knowledge about
//! source behaviour; §6's whole premise is that this knowledge is hard to
//! come by (every record cost a real remote call), so it is worth keeping
//! across restarts. A saved database is a run of values in the
//! [`hermes_common::frame`] binary codec: the header string
//! `hermes-cost-vector-db v2`, then one record after another,
//!
//! ```text
//! record := call  t_first  t_all  card  recorded_at:int (µs)
//! ```
//!
//! where each component is a float or null. Floats keep their bits, so a
//! save/load cycle never perturbs an estimate.

use crate::cost::CostVector;
use crate::vectordb::CostVectorDb;
use hermes_common::frame::{put_call, put_value, BinDecoder};
use hermes_common::{HermesError, Result, SimDuration, SimInstant, Value};
use std::io::{Read, Write};

const HEADER: &str = "hermes-cost-vector-db v2";

fn component(v: Option<f64>) -> Value {
    v.map_or(Value::Null, Value::Float)
}

/// Writes every record to `out`, ordered by `(domain, function)`.
pub fn save<W: Write>(db: &CostVectorDb, mut out: W) -> Result<()> {
    let mut buf = Vec::new();
    put_value(&Value::str(HEADER), &mut buf);
    for (domain, function) in db.functions() {
        for r in db.records_for(&domain, &function) {
            put_call(&r.call, &mut buf);
            put_value(&component(r.vector.t_first_ms), &mut buf);
            put_value(&component(r.vector.t_all_ms), &mut buf);
            put_value(&component(r.vector.cardinality), &mut buf);
            put_value(&Value::Int(r.recorded_at.as_micros() as i64), &mut buf);
        }
    }
    out.write_all(&buf)?;
    Ok(())
}

/// Reads records from `input` into a fresh database.
pub fn load<R: Read>(mut input: R) -> Result<CostVectorDb> {
    let mut bytes = Vec::new();
    input.read_to_end(&mut bytes)?;
    if bytes.is_empty() {
        return Err(HermesError::Io("empty statistics file".into()));
    }
    let mut d = BinDecoder::new(&bytes);
    if !matches!(d.value(), Ok(Value::Str(h)) if *h == *HEADER) {
        return Err(HermesError::Io("unrecognized statistics header".into()));
    }
    let mut db = CostVectorDb::new();
    while !d.is_done() {
        let call = d.call()?;
        let mut next = || match d.value()? {
            Value::Float(x) => Ok(Some(x)),
            Value::Null => Ok(None),
            other => Err(HermesError::Io(format!("bad cost component `{other}`"))),
        };
        let vector = CostVector {
            t_first_ms: next()?,
            t_all_ms: next()?,
            cardinality: next()?,
        };
        let Value::Int(micros) = d.value()? else {
            return Err(HermesError::Io(format!("bad timestamp for {call}")));
        };
        db.record(
            call,
            vector,
            SimInstant::EPOCH + SimDuration::from_micros(micros as u64),
        );
    }
    Ok(db)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vectordb::figure2_database;
    use hermes_common::{CallPattern, GroundCall, PatArg};

    fn saved(db: &CostVectorDb) -> Vec<u8> {
        let mut buf = Vec::new();
        save(db, &mut buf).unwrap();
        buf
    }

    #[test]
    fn roundtrip_preserves_aggregates_exactly() {
        let db = figure2_database();
        let loaded = load(saved(&db).as_slice()).unwrap();
        assert_eq!(loaded.len(), db.len());
        for (domain, function) in db.functions() {
            assert_eq!(
                loaded.records_for(&domain, &function),
                db.records_for(&domain, &function)
            );
        }
        // Aggregates are bit-exact across the roundtrip.
        let p = CallPattern::new("d1", "p_bf", vec![PatArg::Const(Value::str("a"))]);
        let (v, n) = loaded.aggregate(&p);
        let (v0, n0) = db.aggregate(&p);
        assert_eq!((v, n), (v0, n0));
    }

    #[test]
    fn save_is_deterministic() {
        let db = figure2_database();
        assert_eq!(saved(&db), saved(&db));
    }

    #[test]
    fn partial_vectors_roundtrip() {
        let mut db = CostVectorDb::new();
        db.record(
            GroundCall::new("d", "f", vec![]),
            CostVector {
                t_first_ms: Some(1.25),
                t_all_ms: None,
                cardinality: None,
            },
            SimInstant::EPOCH,
        );
        let loaded = load(saved(&db).as_slice()).unwrap();
        let r = &loaded.records_for("d", "f")[0];
        assert_eq!(r.vector.t_first_ms, Some(1.25));
        assert_eq!(r.vector.t_all_ms, None);
    }

    #[test]
    fn header_and_shape_validation() {
        for file in [b"wrong".as_slice(), b"hermes-cost-vector-db v1\n"] {
            let err = load(file).unwrap_err();
            assert!(
                matches!(&err, HermesError::Io(m) if m.contains("header")),
                "{err}"
            );
        }
        assert!(load(b"".as_slice())
            .unwrap_err()
            .to_string()
            .contains("empty"));
        // A record cut after its call, then one with a non-float component.
        let mut bad = saved(&CostVectorDb::new());
        put_call(&GroundCall::new("d", "f", vec![]), &mut bad);
        assert!(load(bad.as_slice()).is_err());
        put_value(&Value::str("zz"), &mut bad);
        assert!(load(bad.as_slice()).is_err());
    }
}
