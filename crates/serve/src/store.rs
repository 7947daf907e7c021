//! The one module that touches the disk: the journal, recovery and the
//! replication sender reach a journal directory only through a [`Store`].
//! [`FileStore`] is the real directory; tests use an in-memory one.

use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// The files of one journal directory, and the only things the serve
/// crate does to them. Nothing is ever deleted.
pub(crate) trait Store: fmt::Debug + Send + Sync {
    /// The names of the directory's entries (those that are UTF-8).
    fn list(&self) -> io::Result<Vec<String>>;
    /// All of `name`.
    fn read(&self, name: &str) -> io::Result<Vec<u8>>;
    /// A reader over `name` from byte `offset` on; it also reads what is
    /// appended after it was opened.
    fn read_from(&self, name: &str, offset: u64) -> io::Result<Box<dyn Read + Send>>;
    /// Whether `name` exists.
    fn exists(&self, name: &str) -> bool;
    /// Opens `name` for appending and says how long it is: created when
    /// absent, or — `fresh` — created and failing if it exists.
    fn append(&self, name: &str, fresh: bool) -> io::Result<(Box<dyn Appender>, u64)>;
    /// Makes `bytes` the content of `name` atomically: written to
    /// `name.tmp`, synced, and renamed over `name`.
    fn create_durable(&self, name: &str, bytes: &[u8]) -> io::Result<()>;
    /// Renames `from` to `to`.
    fn rename(&self, from: &str, to: &str) -> io::Result<()>;
    /// Cuts `name` to `len` bytes and syncs it.
    fn truncate(&self, name: &str, len: u64) -> io::Result<()>;
    /// Syncs the directory itself, so created and renamed entries
    /// survive a machine crash: file data on stable storage says nothing
    /// about the directory entry that points at it.
    fn sync_dir(&self) -> io::Result<()>;
}

/// A file open for appending, kept open between rounds.
pub(crate) trait Appender: fmt::Debug + Send {
    /// Appends all of `bytes` in one write.
    fn write(&mut self, bytes: &[u8]) -> io::Result<()>;
    /// Flushes the file's data to stable storage.
    fn sync_data(&mut self) -> io::Result<()>;
}

/// A journal directory on the real filesystem.
#[derive(Debug, Clone)]
pub(crate) struct FileStore {
    dir: PathBuf,
}

impl FileStore {
    /// The directory `dir`, which only reads need to find existing.
    pub(crate) fn new(dir: &Path) -> Self {
        Self { dir: dir.into() }
    }

    /// [`FileStore::new`], creating `dir` first.
    pub(crate) fn create(dir: &Path) -> io::Result<Self> {
        fs::create_dir_all(dir)?;
        Ok(Self::new(dir))
    }

    /// All of the file at `path`, in whatever directory.
    pub(crate) fn read_path(path: &Path) -> io::Result<Vec<u8>> {
        fs::read(path)
    }

    fn path(&self, name: &str) -> PathBuf {
        self.dir.join(name)
    }
}

impl Store for FileStore {
    fn list(&self) -> io::Result<Vec<String>> {
        let mut names = Vec::new();
        for entry in fs::read_dir(&self.dir)? {
            names.extend(entry?.file_name().to_str().map(str::to_owned));
        }
        Ok(names)
    }

    fn read(&self, name: &str) -> io::Result<Vec<u8>> {
        fs::read(self.path(name))
    }

    fn read_from(&self, name: &str, offset: u64) -> io::Result<Box<dyn Read + Send>> {
        let mut file = File::open(self.path(name))?;
        file.seek(SeekFrom::Start(offset))?;
        Ok(Box::new(file))
    }

    fn exists(&self, name: &str) -> bool {
        self.path(name).exists()
    }

    fn append(&self, name: &str, fresh: bool) -> io::Result<(Box<dyn Appender>, u64)> {
        let file = OpenOptions::new()
            .append(true)
            .create(true)
            .create_new(fresh)
            .open(self.path(name))?;
        let len = if fresh { 0 } else { file.metadata()?.len() };
        Ok((Box::new(file), len))
    }

    fn create_durable(&self, name: &str, bytes: &[u8]) -> io::Result<()> {
        let tmp = self.path(&format!("{name}.tmp"));
        {
            let mut f = File::create(&tmp)?;
            f.write_all(bytes)?;
            f.sync_data()?;
        }
        fs::rename(&tmp, self.path(name))
    }

    fn rename(&self, from: &str, to: &str) -> io::Result<()> {
        fs::rename(self.path(from), self.path(to))
    }

    fn truncate(&self, name: &str, len: u64) -> io::Result<()> {
        let file = OpenOptions::new().write(true).open(self.path(name))?;
        file.set_len(len)?;
        file.sync_data()
    }

    fn sync_dir(&self) -> io::Result<()> {
        File::open(&self.dir)?.sync_all()
    }
}

impl Appender for File {
    fn write(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.write_all(bytes)
    }

    fn sync_data(&mut self) -> io::Result<()> {
        File::sync_data(self)
    }
}

#[cfg(test)]
pub(crate) use mem::{MemStore, Op};

#[cfg(test)]
mod mem {
    //! A journal directory in memory, for tests that step the server on
    //! one thread.

    use std::collections::{BTreeMap, BTreeSet};
    use std::io::{self, Read};
    use std::sync::{Arc, Mutex, MutexGuard};

    use super::{Appender, Store};

    /// What a [`MemStore`] can be told to fail.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
    pub(crate) enum Op {
        /// [`Store::list`].
        List,
        /// [`Store::read`] and [`Store::read_from`].
        Read,
        /// [`Store::append`].
        Open,
        /// The temp file of [`Store::create_durable`].
        Create,
        /// [`Store::rename`], and the rename of [`Store::create_durable`].
        Rename,
        /// [`Store::truncate`].
        Truncate,
        /// [`Store::sync_dir`].
        SyncDir,
        /// [`Appender::write`].
        Write,
        /// [`Appender::sync_data`].
        Sync,
    }

    /// Files by name, shared by every clone; written data is kept even
    /// when a later sync fails, as a page cache would keep it.
    #[derive(Debug, Clone, Default)]
    pub(crate) struct MemStore(Arc<Mutex<Dir>>);

    #[derive(Debug, Default)]
    struct Dir {
        files: BTreeMap<String, Vec<u8>>,
        failing: BTreeSet<Op>,
        /// Successful [`Appender::sync_data`] calls.
        syncs: u64,
    }

    impl MemStore {
        /// Makes `op` fail from now on (`true`) or succeed again.
        pub(crate) fn fail(&self, op: Op, failing: bool) {
            let mut dir = self.dir();
            if failing {
                dir.failing.insert(op);
            } else {
                dir.failing.remove(&op);
            }
        }

        /// What a failing `op` returns.
        pub(crate) fn error(op: Op) -> io::Error {
            io::Error::other(format!("injected {op:?} failure"))
        }

        /// How many [`Appender::sync_data`] calls have succeeded.
        pub(crate) fn syncs(&self) -> u64 {
            self.dir().syncs
        }

        /// Every file, by name.
        pub(crate) fn files(&self) -> Vec<(String, Vec<u8>)> {
            self.dir().files.clone().into_iter().collect()
        }

        fn dir(&self) -> MutexGuard<'_, Dir> {
            self.0.lock().expect("store lock")
        }

        /// The directory, unless `op` is set to fail.
        fn check(&self, op: Op) -> io::Result<MutexGuard<'_, Dir>> {
            let dir = self.dir();
            if dir.failing.contains(&op) {
                return Err(Self::error(op));
            }
            Ok(dir)
        }
    }

    fn not_found(name: &str) -> io::Error {
        io::Error::new(io::ErrorKind::NotFound, format!("no file {name}"))
    }

    impl Store for MemStore {
        fn list(&self) -> io::Result<Vec<String>> {
            Ok(self.check(Op::List)?.files.keys().cloned().collect())
        }

        fn read(&self, name: &str) -> io::Result<Vec<u8>> {
            let dir = self.check(Op::Read)?;
            dir.files.get(name).cloned().ok_or_else(|| not_found(name))
        }

        fn read_from(&self, name: &str, offset: u64) -> io::Result<Box<dyn Read + Send>> {
            if !self.check(Op::Read)?.files.contains_key(name) {
                return Err(not_found(name));
            }
            let (store, name) = (self.clone(), name.to_owned());
            Ok(Box::new(MemFile {
                store,
                name,
                at: offset,
            }))
        }

        fn exists(&self, name: &str) -> bool {
            self.dir().files.contains_key(name)
        }

        fn append(&self, name: &str, fresh: bool) -> io::Result<(Box<dyn Appender>, u64)> {
            let mut dir = self.check(Op::Open)?;
            if fresh && dir.files.contains_key(name) {
                return Err(io::Error::new(io::ErrorKind::AlreadyExists, name));
            }
            let len = dir.files.entry(name.to_owned()).or_default().len();
            let file = MemFile {
                store: self.clone(),
                name: name.to_owned(),
                at: 0,
            };
            Ok((Box::new(file), len as u64))
        }

        fn create_durable(&self, name: &str, bytes: &[u8]) -> io::Result<()> {
            let tmp = format!("{name}.tmp");
            self.check(Op::Create)?
                .files
                .insert(tmp.clone(), bytes.to_vec());
            self.rename(&tmp, name)
        }

        fn rename(&self, from: &str, to: &str) -> io::Result<()> {
            let mut dir = self.check(Op::Rename)?;
            let bytes = dir.files.remove(from).ok_or_else(|| not_found(from))?;
            dir.files.insert(to.to_owned(), bytes);
            Ok(())
        }

        fn truncate(&self, name: &str, len: u64) -> io::Result<()> {
            let mut dir = self.check(Op::Truncate)?;
            let file = dir.files.get_mut(name).ok_or_else(|| not_found(name))?;
            file.truncate(len as usize);
            Ok(())
        }

        fn sync_dir(&self) -> io::Result<()> {
            self.check(Op::SyncDir).map(drop)
        }
    }

    /// An open file of a [`MemStore`]: an appender, or a reader at `at`.
    #[derive(Debug)]
    struct MemFile {
        store: MemStore,
        name: String,
        at: u64,
    }

    impl Appender for MemFile {
        fn write(&mut self, bytes: &[u8]) -> io::Result<()> {
            let mut dir = self.store.check(Op::Write)?;
            let file = dir.files.get_mut(&self.name);
            file.ok_or_else(|| not_found(&self.name))?
                .extend_from_slice(bytes);
            Ok(())
        }

        fn sync_data(&mut self) -> io::Result<()> {
            self.store.check(Op::Sync)?.syncs += 1;
            Ok(())
        }
    }

    impl Read for MemFile {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let dir = self.store.check(Op::Read)?;
            let file = dir
                .files
                .get(&self.name)
                .ok_or_else(|| not_found(&self.name))?;
            let rest = file.get(self.at as usize..).unwrap_or_default();
            let n = rest.len().min(buf.len());
            buf[..n].copy_from_slice(&rest[..n]);
            self.at += n as u64;
            Ok(n)
        }
    }
}
