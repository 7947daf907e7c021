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
    /// Opens `name` for appending, created when absent, and says how
    /// long it is.
    fn append(&self, name: &str) -> io::Result<(Box<dyn Appender>, u64)>;
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

    fn append(&self, name: &str) -> io::Result<(Box<dyn Appender>, u64)> {
        let file = OpenOptions::new()
            .append(true)
            .create(true)
            .open(self.path(name))?;
        let len = file.metadata()?.len();
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
pub(crate) use mem::{At, Fault, MemStore, Op, Schedule};

#[cfg(test)]
mod mem {
    //! A journal directory in memory, for tests that step the server on
    //! one thread, with faults injected on a schedule.

    use std::collections::BTreeMap;
    use std::io::{self, Read};
    use std::sync::{Arc, Mutex, MutexGuard};

    use super::{Appender, Store};

    /// The kinds of operation a [`MemStore`] counts and can fault.
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

    /// What a fault does to the operation it strikes.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub(crate) enum Fault {
        /// The operation errors and does nothing.
        Fail,
        /// A write ([`Op::Write`], [`Op::Create`]) lands its first
        /// `keep % len` bytes, then errors; any other operation fails.
        Torn(u64),
        /// This operation and every later one fail: the process is gone.
        Crash,
    }

    /// Which operation a fault strikes, counting from 0.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub(crate) enum At {
        /// The n-th store operation of any kind.
        Nth(u64),
        /// The n-th operation of one kind.
        Of(Op, u64),
    }

    /// The faults a [`MemStore`] injects, and what a crash leaves behind.
    #[derive(Debug, Clone, Default)]
    pub(crate) struct Schedule {
        /// Each fault, with the operation it strikes.
        pub faults: Vec<(At, Fault)>,
        /// The process dies with its machine: each file falls back to its
        /// last successful sync. Otherwise every written byte survives.
        /// Directory entries survive either way.
        pub power_loss: bool,
    }

    /// Files by name, shared by every clone; written data is kept even
    /// when a later sync fails, as a page cache would keep it.
    #[derive(Debug, Clone, Default)]
    pub(crate) struct MemStore(Arc<Mutex<Dir>>);

    #[derive(Debug, Default)]
    struct Dir {
        files: BTreeMap<String, Vec<u8>>,
        /// Each file's length at its last successful sync.
        synced: BTreeMap<String, usize>,
        schedule: Schedule,
        /// Operations so far, in all and by kind.
        ops: u64,
        ops_of: BTreeMap<Op, u64>,
        crashed: bool,
        /// Successful [`Appender::sync_data`] calls.
        syncs: u64,
    }

    impl Dir {
        /// Counts one `op` and returns the fault that strikes it.
        fn strike(&mut self, op: Op) -> Option<Fault> {
            let of = self.ops_of.entry(op).or_default();
            let (nth, nth_of) = (self.ops, *of);
            (self.ops, *of) = (nth + 1, nth_of + 1);
            if self.crashed {
                return Some(Fault::Crash);
            }
            let fault = self.schedule.faults.iter().find_map(|&(at, fault)| {
                (at == At::Nth(nth) || at == At::Of(op, nth_of)).then_some(fault)
            })?;
            self.crashed = fault == Fault::Crash;
            Some(fault)
        }
    }

    impl MemStore {
        /// An empty directory that injects `schedule`'s faults.
        pub(crate) fn new(schedule: Schedule) -> Self {
            let store = Self::default();
            store.dir().schedule = schedule;
            store
        }

        /// What a faulted `op` returns.
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

        /// What a restart finds once the process is gone: the files as
        /// the crash left them, in a store with no faults.
        pub(crate) fn restart(&self) -> Self {
            let (dir, restarted) = (self.dir(), Self::default());
            let mut files = dir.files.clone();
            if dir.schedule.power_loss {
                for (name, bytes) in &mut files {
                    bytes.truncate(dir.synced.get(name).copied().unwrap_or(0));
                }
            }
            restarted.dir().files = files;
            restarted
        }

        fn dir(&self) -> MutexGuard<'_, Dir> {
            self.0.lock().expect("store lock")
        }

        /// The directory, unless a fault strikes this `op`.
        fn check(&self, op: Op) -> io::Result<MutexGuard<'_, Dir>> {
            let mut dir = self.dir();
            match dir.strike(op) {
                None => Ok(dir),
                Some(_) => Err(Self::error(op)),
            }
        }

        /// The directory and how many of a write's `len` bytes land,
        /// unless a fault stops the write outright.
        fn landing(&self, op: Op, len: usize) -> io::Result<(MutexGuard<'_, Dir>, usize)> {
            let mut dir = self.dir();
            match dir.strike(op) {
                None => Ok((dir, len)),
                Some(Fault::Torn(keep)) => Ok((dir, (keep % len.max(1) as u64) as usize)),
                Some(_) => Err(Self::error(op)),
            }
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

        fn append(&self, name: &str) -> io::Result<(Box<dyn Appender>, u64)> {
            let mut dir = self.check(Op::Open)?;
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
            let (mut dir, keep) = self.landing(Op::Create, bytes.len())?;
            dir.files.insert(tmp.clone(), bytes[..keep].to_vec());
            if keep < bytes.len() {
                return Err(Self::error(Op::Create));
            }
            dir.synced.insert(tmp.clone(), keep);
            drop(dir);
            self.rename(&tmp, name)
        }

        fn rename(&self, from: &str, to: &str) -> io::Result<()> {
            let mut dir = self.check(Op::Rename)?;
            let bytes = dir.files.remove(from).ok_or_else(|| not_found(from))?;
            dir.files.insert(to.to_owned(), bytes);
            let synced = dir.synced.remove(from).unwrap_or(0);
            dir.synced.insert(to.to_owned(), synced);
            Ok(())
        }

        fn truncate(&self, name: &str, len: u64) -> io::Result<()> {
            let mut dir = self.check(Op::Truncate)?;
            let file = dir.files.get_mut(name).ok_or_else(|| not_found(name))?;
            file.truncate(len as usize);
            let len = file.len();
            dir.synced.insert(name.to_owned(), len);
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
            let (mut dir, keep) = self.store.landing(Op::Write, bytes.len())?;
            let file = dir.files.get_mut(&self.name);
            file.ok_or_else(|| not_found(&self.name))?
                .extend_from_slice(&bytes[..keep]);
            if keep < bytes.len() {
                return Err(MemStore::error(Op::Write));
            }
            Ok(())
        }

        fn sync_data(&mut self) -> io::Result<()> {
            let mut dir = self.store.check(Op::Sync)?;
            let len = dir.files.get(&self.name).map_or(0, Vec::len);
            dir.synced.insert(self.name.clone(), len);
            dir.syncs += 1;
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
