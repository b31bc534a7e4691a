//! Write-ahead log.
//!
//! Every mutation (single op or batch) is appended to the tree's WAL as a
//! single CRC-protected, length-prefixed record *before* it touches the
//! memtable, so a crash between acknowledgment and flush loses nothing.
//! Records are replayed into a fresh memtable at open time; a truncated or
//! corrupt tail record is treated as "crash during the last write" and the
//! log is truncated there (the RocksDB `kTolerateCorruptedTailRecords`
//! behaviour), while corruption in the *middle* of the log is an error.
//!
//! Record layout:
//! ```text
//! u32 payload_len | u32 crc32(payload) | payload
//! payload := u32 n_ops | n_ops * ( u8 kind | u32 klen | key | [u32 vlen | value] )
//! ```

use crate::batch::{BatchOp, WriteBatch};
use crate::error::{Error, Result};
use bytes::Bytes;
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

const KIND_PUT: u8 = 1;
const KIND_DELETE: u8 = 2;

/// Append-only writer for a tree's WAL file.
#[derive(Debug)]
pub struct Wal {
    path: PathBuf,
    writer: BufWriter<File>,
    /// Bytes appended since open/rotate (diagnostics & rotation policy).
    written: u64,
    sync_on_write: bool,
}

impl Wal {
    /// Open (creating if necessary) the WAL at `path` for appending.
    pub fn open(path: impl Into<PathBuf>, sync_on_write: bool) -> Result<Self> {
        let path = path.into();
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        let written = file.metadata()?.len();
        Ok(Wal {
            path,
            writer: BufWriter::new(file),
            written,
            sync_on_write,
        })
    }

    /// Append one batch as a single atomic record.
    pub fn append(&mut self, batch: &WriteBatch) -> Result<()> {
        let payload = encode_payload(batch);
        let mut header = [0u8; 8];
        header[0..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
        header[4..8].copy_from_slice(&crate::crc32(&payload).to_le_bytes());
        self.writer.write_all(&header)?;
        self.writer.write_all(&payload)?;
        self.writer.flush()?;
        if self.sync_on_write {
            self.writer.get_ref().sync_data()?;
        }
        self.written += (header.len() + payload.len()) as u64;
        Ok(())
    }

    /// Total bytes in the log file.
    pub fn len_bytes(&self) -> u64 {
        self.written
    }

    /// Truncate the log after its contents were flushed to a segment.
    pub fn reset(&mut self) -> Result<()> {
        self.writer.flush()?;
        let file = self.writer.get_mut();
        file.set_len(0)?;
        file.seek(SeekFrom::Start(0))?;
        self.written = 0;
        Ok(())
    }

    /// Path of the underlying file.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

fn encode_payload(batch: &WriteBatch) -> Vec<u8> {
    let mut out = Vec::with_capacity(batch.encoded_size() + 4);
    out.extend_from_slice(&(batch.len() as u32).to_le_bytes());
    for op in batch.iter() {
        match op {
            BatchOp::Put { key, value } => {
                out.push(KIND_PUT);
                out.extend_from_slice(&(key.len() as u32).to_le_bytes());
                out.extend_from_slice(key);
                out.extend_from_slice(&(value.len() as u32).to_le_bytes());
                out.extend_from_slice(value);
            }
            BatchOp::Delete { key } => {
                out.push(KIND_DELETE);
                out.extend_from_slice(&(key.len() as u32).to_le_bytes());
                out.extend_from_slice(key);
            }
        }
    }
    out
}

fn decode_payload(payload: &[u8], file: &str) -> Result<Vec<BatchOp>> {
    let corrupt = |d: &str| Error::corruption(file, d);
    if payload.len() < 4 {
        return Err(corrupt("payload shorter than op count"));
    }
    let n_ops = u32::from_le_bytes(payload[0..4].try_into().unwrap()) as usize;
    let mut ops = Vec::with_capacity(n_ops);
    let mut pos = 4usize;
    let take = |pos: &mut usize, n: usize| -> Result<&[u8]> {
        if *pos + n > payload.len() {
            return Err(Error::corruption(file, "op extends past payload"));
        }
        let s = &payload[*pos..*pos + n];
        *pos += n;
        Ok(s)
    };
    for _ in 0..n_ops {
        let kind = take(&mut pos, 1)?[0];
        let klen = u32::from_le_bytes(take(&mut pos, 4)?.try_into().unwrap()) as usize;
        let key = take(&mut pos, klen)?.to_vec();
        match kind {
            KIND_PUT => {
                let vlen = u32::from_le_bytes(take(&mut pos, 4)?.try_into().unwrap()) as usize;
                let value = Bytes::copy_from_slice(take(&mut pos, vlen)?);
                ops.push(BatchOp::Put { key, value });
            }
            KIND_DELETE => ops.push(BatchOp::Delete { key }),
            k => return Err(corrupt(&format!("unknown op kind {k}"))),
        }
    }
    if pos != payload.len() {
        return Err(corrupt("trailing bytes after last op"));
    }
    Ok(ops)
}

/// Outcome of replaying a WAL file.
#[derive(Debug)]
pub struct Replay {
    /// Every committed batch in append order.
    pub batches: Vec<Vec<BatchOp>>,
    /// Byte offset of the first invalid tail record, if the log had a
    /// truncated/corrupt tail that was discarded.
    pub truncated_at: Option<u64>,
}

/// Replay a WAL file, tolerating a corrupt tail record.
pub fn replay(path: &Path) -> Result<Replay> {
    let fname = path.display().to_string();
    let mut batches = Vec::new();
    let mut truncated_at = None;
    let mut file = match File::open(path) {
        Ok(f) => f,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            return Ok(Replay {
                batches,
                truncated_at,
            })
        }
        Err(e) => return Err(e.into()),
    };
    let mut data = Vec::new();
    file.read_to_end(&mut data)?;
    let mut pos = 0usize;
    while pos < data.len() {
        if pos + 8 > data.len() {
            truncated_at = Some(pos as u64);
            break;
        }
        let len = u32::from_le_bytes(data[pos..pos + 4].try_into().unwrap()) as usize;
        let crc = u32::from_le_bytes(data[pos + 4..pos + 8].try_into().unwrap());
        if pos + 8 + len > data.len() {
            truncated_at = Some(pos as u64);
            break;
        }
        let payload = &data[pos + 8..pos + 8 + len];
        if crate::crc32(payload) != crc {
            // A bad CRC on the final record is a torn write; anywhere else
            // it is real corruption.
            if is_tail(&data, pos + 8 + len) {
                truncated_at = Some(pos as u64);
                break;
            }
            return Err(Error::corruption(
                &fname,
                format!("bad crc at offset {pos}"),
            ));
        }
        batches.push(decode_payload(payload, &fname)?);
        pos += 8 + len;
    }
    if let Some(off) = truncated_at {
        // Drop the torn tail so subsequent appends produce a clean log.
        let f = OpenOptions::new().write(true).open(path)?;
        f.set_len(off)?;
    }
    Ok(Replay {
        batches,
        truncated_at,
    })
}

/// Whether `end` is the end of the data, i.e. the record ending there is
/// the last record in the log.
fn is_tail(data: &[u8], end: usize) -> bool {
    end >= data.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("gtkv-wal-{}-{name}", std::process::id()));
        std::fs::create_dir_all(&d).unwrap();
        d.join("wal.log")
    }

    fn batch_put(k: &str, v: &str) -> WriteBatch {
        let mut b = WriteBatch::new();
        b.put(k.as_bytes().to_vec(), Bytes::copy_from_slice(v.as_bytes()));
        b
    }

    #[test]
    fn roundtrip_multiple_batches() {
        let p = tmp("roundtrip");
        std::fs::remove_file(&p).ok();
        {
            let mut w = Wal::open(&p, false).unwrap();
            w.append(&batch_put("a", "1")).unwrap();
            let mut b = WriteBatch::new();
            b.put(b"b".to_vec(), Bytes::from_static(b"2"))
                .delete(b"a".to_vec());
            w.append(&b).unwrap();
        }
        let r = replay(&p).unwrap();
        assert!(r.truncated_at.is_none());
        assert_eq!(r.batches.len(), 2);
        assert_eq!(r.batches[1].len(), 2);
        assert!(matches!(&r.batches[1][1], BatchOp::Delete { key } if key == b"a"));
    }

    #[test]
    fn missing_file_is_empty_replay() {
        let p = tmp("missing");
        std::fs::remove_file(&p).ok();
        let r = replay(&p).unwrap();
        assert!(r.batches.is_empty());
    }

    #[test]
    fn torn_tail_is_truncated_not_fatal() {
        let p = tmp("torn");
        std::fs::remove_file(&p).ok();
        {
            let mut w = Wal::open(&p, false).unwrap();
            w.append(&batch_put("a", "1")).unwrap();
            w.append(&batch_put("b", "2")).unwrap();
        }
        // Chop 3 bytes off the end, simulating a crash mid-append.
        let len = std::fs::metadata(&p).unwrap().len();
        let f = OpenOptions::new().write(true).open(&p).unwrap();
        f.set_len(len - 3).unwrap();
        drop(f);
        let r = replay(&p).unwrap();
        assert_eq!(r.batches.len(), 1);
        assert!(r.truncated_at.is_some());
        // The file must now be cleanly appendable.
        let mut w = Wal::open(&p, false).unwrap();
        w.append(&batch_put("c", "3")).unwrap();
        drop(w);
        let r2 = replay(&p).unwrap();
        assert_eq!(r2.batches.len(), 2);
        assert!(r2.truncated_at.is_none());
    }

    #[test]
    fn mid_log_corruption_is_fatal() {
        let p = tmp("midcorrupt");
        std::fs::remove_file(&p).ok();
        {
            let mut w = Wal::open(&p, false).unwrap();
            w.append(&batch_put("aaaaaaaa", "11111111")).unwrap();
            w.append(&batch_put("bbbbbbbb", "22222222")).unwrap();
        }
        // Flip a payload byte inside the *first* record.
        let mut data = std::fs::read(&p).unwrap();
        data[10] ^= 0xFF;
        std::fs::write(&p, &data).unwrap();
        assert!(matches!(replay(&p), Err(Error::Corruption { .. })));
    }

    #[test]
    fn reset_empties_log() {
        let p = tmp("reset");
        std::fs::remove_file(&p).ok();
        let mut w = Wal::open(&p, false).unwrap();
        w.append(&batch_put("a", "1")).unwrap();
        assert!(w.len_bytes() > 0);
        w.reset().unwrap();
        assert_eq!(w.len_bytes(), 0);
        assert!(replay(&p).unwrap().batches.is_empty());
        // And appends continue to work post-reset.
        w.append(&batch_put("z", "9")).unwrap();
        drop(w);
        assert_eq!(replay(&p).unwrap().batches.len(), 1);
    }
}
