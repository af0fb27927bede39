//! Answer-cache persistence.
//!
//! Caching exists because source calls are expensive (remote, metered,
//! sometimes unavailable — §1); a cache that evaporates on restart wastes
//! exactly those calls. A saved cache is a run of values in the
//! [`hermes_common::frame`] binary codec: the header string
//! `hermes-answer-cache v2`, then one entry after another,
//!
//! ```text
//! entry := call  complete:bool  inserted_at:int (µs)  n:int  answer{n}
//! ```

use crate::cache::AnswerCache;
use hermes_common::frame::{put_call, put_value, BinDecoder};
use hermes_common::{HermesError, Result, SimDuration, SimInstant, Value};
use std::io::{Read, Write};

const HEADER: &str = "hermes-answer-cache v2";

/// Writes every cache entry to `out`, ordered by call.
pub fn save<W: Write>(cache: &AnswerCache, mut out: W) -> Result<()> {
    let mut buf = Vec::new();
    put_value(&Value::str(HEADER), &mut buf);
    let mut entries: Vec<_> = cache.iter().collect();
    entries.sort_by(|a, b| a.0.cmp(b.0));
    for (call, entry) in entries {
        put_call(call, &mut buf);
        put_value(&Value::Bool(entry.complete), &mut buf);
        put_value(&Value::Int(entry.inserted_at.as_micros() as i64), &mut buf);
        put_value(&Value::Int(entry.answers.len() as i64), &mut buf);
        for a in entry.answers.iter() {
            put_value(a, &mut buf);
        }
    }
    out.write_all(&buf)?;
    Ok(())
}

/// Replaces the entries of `cache` with those read from `input`. The
/// cache keeps its byte budget and registered ordered indexes; a
/// malformed file is an error and leaves the cache untouched.
pub fn load<R: Read>(mut input: R, cache: &mut AnswerCache) -> Result<()> {
    let mut bytes = Vec::new();
    input.read_to_end(&mut bytes)?;
    if bytes.is_empty() {
        return Err(HermesError::Io("empty cache file".into()));
    }
    let mut d = BinDecoder::new(&bytes);
    if !matches!(d.value(), Ok(Value::Str(h)) if *h == *HEADER) {
        return Err(HermesError::Io("unrecognized cache header".into()));
    }
    let mut entries = Vec::new();
    while !d.is_done() {
        let call = d.call()?;
        let (Value::Bool(complete), Value::Int(micros), Value::Int(n)) =
            (d.value()?, d.value()?, d.value()?)
        else {
            return Err(HermesError::Io(format!("malformed cache entry for {call}")));
        };
        let mut answers = Vec::new();
        for _ in 0..n {
            answers.push(d.value()?);
        }
        let at = SimInstant::EPOCH + SimDuration::from_micros(micros as u64);
        entries.push((call, answers, complete, at));
    }
    cache.clear();
    for (call, answers, complete, at) in entries {
        cache.insert(call, answers, complete, at);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use hermes_common::{GroundCall, Record};

    fn sample_cache() -> AnswerCache {
        let mut c = AnswerCache::new();
        c.insert(
            GroundCall::new(
                "video",
                "frames_to_objects",
                vec![Value::str("rope"), Value::Int(4), Value::Int(47)],
            ),
            vec![Value::str("brandon"), Value::str("rupert")],
            true,
            SimInstant::EPOCH + SimDuration::from_millis(1234),
        );
        c.insert(
            GroundCall::new("d", "f", vec![Value::Float(2.5)]),
            vec![Value::Record(Record::from_fields([
                ("first", Value::Int(0)),
                ("note", Value::str("multi\nline")),
            ]))],
            false,
            SimInstant::EPOCH,
        );
        c.insert(
            GroundCall::new("d", "empty", vec![]),
            vec![],
            true,
            SimInstant::EPOCH,
        );
        c
    }

    fn saved(cache: &AnswerCache) -> Vec<u8> {
        let mut buf = Vec::new();
        save(cache, &mut buf).unwrap();
        buf
    }

    #[test]
    fn save_load_roundtrip() {
        let cache = sample_cache();
        let mut loaded = AnswerCache::new();
        load(saved(&cache).as_slice(), &mut loaded).unwrap();
        assert_eq!(loaded.len(), cache.len());
        for (call, entry) in cache.iter() {
            let got = loaded.peek(call).expect("entry survives");
            assert_eq!(got.answers, entry.answers);
            assert_eq!(got.complete, entry.complete);
            assert_eq!(got.inserted_at, entry.inserted_at);
        }
    }

    #[test]
    fn save_is_deterministic() {
        let cache = sample_cache();
        assert_eq!(saved(&cache), saved(&cache));
    }

    #[test]
    fn bad_header_rejected() {
        let mut cache = AnswerCache::new();
        for file in [b"nope".as_slice(), b"hermes-answer-cache v1\n"] {
            let err = load(file, &mut cache).unwrap_err();
            assert!(
                matches!(&err, HermesError::Io(m) if m.contains("header")),
                "{err}"
            );
        }
        let err = load(b"".as_slice(), &mut cache).unwrap_err();
        assert!(err.to_string().contains("empty"));
    }

    #[test]
    fn truncated_entry_rejected_and_cache_untouched() {
        let bytes = saved(&sample_cache());
        let mut cache = AnswerCache::new();
        cache.insert(
            GroundCall::new("d", "g", vec![]),
            vec![Value::Int(9)],
            true,
            SimInstant::EPOCH,
        );
        let before = saved(&cache);
        assert!(load(&bytes[..bytes.len() - 1], &mut cache).is_err());
        assert_eq!(saved(&cache), before);
    }
}
