//! Shared file-backed pages (the page cache).
//!
//! Apache's request loop `mmap()`s the requested file and `munmap()`s it
//! after serving (§6.2.2) — the file's frames live in the page cache and
//! are *shared* between every worker that has the file mapped. Unmapping
//! drops a reference but the cache keeps its own, so file frames are not
//! freed by munmap; what must still be shot down are the TLB entries.

use crate::addr::Pfn;
use crate::frame::{AllocError, FrameAllocator};
use latr_arch::NodeId;

/// Identifier of a cached file.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct FileId(pub u32);

/// The page cache: file pages resident in memory.
///
/// ```
/// use latr_mem::{PageCache, FrameAllocator, FileId};
/// use latr_arch::NodeId;
/// let mut fa = FrameAllocator::new(1, 64);
/// let mut pc = PageCache::new();
/// let f = pc.register_file(4); // 4-page file
/// let a = pc.frame_for(f, 0, NodeId(0), &mut fa).unwrap();
/// let b = pc.frame_for(f, 0, NodeId(0), &mut fa).unwrap();
/// assert_eq!(a, b); // same cached frame
/// ```
#[derive(Debug, Default)]
pub struct PageCache {
    /// One entry per registered file, indexed by `FileId`.
    files: Vec<CachedFile>,
    /// Resident pages across all files.
    resident: usize,
}

/// One file's size and resident frames.
#[derive(Debug)]
struct CachedFile {
    pages: u64,
    /// The frame backing each page, indexed by file page; grown on first
    /// touch, so it spans the file's highest resident page, not its size.
    frames: Vec<Option<Pfn>>,
}

impl PageCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a file of `pages` pages and returns its id.
    pub fn register_file(&mut self, pages: u64) -> FileId {
        let id = FileId(self.files.len() as u32);
        self.files.push(CachedFile {
            pages,
            frames: Vec::new(),
        });
        id
    }

    fn file(&self, file: FileId) -> &CachedFile {
        self.files
            .get(file.0 as usize)
            .unwrap_or_else(|| panic!("unknown file {file:?}"))
    }

    /// The frame slot of `(file, page)`, if the slot exists yet.
    fn slot(&mut self, file: FileId, page: u64) -> Option<&mut Option<Pfn>> {
        self.files
            .get_mut(file.0 as usize)?
            .frames
            .get_mut(usize::try_from(page).ok()?)
    }

    /// Size of a file in pages.
    ///
    /// # Panics
    ///
    /// Panics for an unregistered file.
    pub fn file_pages(&self, file: FileId) -> u64 {
        self.file(file).pages
    }

    /// Returns the resident frame for `(file, page)`, reading it in (one
    /// frame allocation on `node`, refcount owned by the cache) on first
    /// touch. [`AllocError`] when the machine is out of memory.
    ///
    /// # Panics
    ///
    /// Panics if `page` is beyond the file's size.
    pub fn frame_for(
        &mut self,
        file: FileId,
        page: u64,
        node: NodeId,
        frames: &mut FrameAllocator,
    ) -> Result<Pfn, AllocError> {
        assert!(
            page < self.file_pages(file),
            "page {page} beyond end of {file:?}"
        );
        if let Some(&mut Some(pfn)) = self.slot(file, page) {
            return Ok(pfn);
        }
        let pfn = frames.alloc(node)?;
        let cached = &mut self.files[file.0 as usize].frames;
        if cached.len() as u64 <= page {
            cached.resize(page as usize + 1, None);
        }
        cached[page as usize] = Some(pfn);
        self.resident += 1;
        Ok(pfn)
    }

    /// Evicts one file page, dropping the cache's frame reference. Returns
    /// the frame that backed it, if it was resident.
    pub fn evict(&mut self, file: FileId, page: u64, frames: &mut FrameAllocator) -> Option<Pfn> {
        let pfn = self.slot(file, page)?.take()?;
        self.resident -= 1;
        frames
            .dec_ref(pfn)
            .expect("page cache held a reference on its resident frame");
        Some(pfn)
    }

    /// Number of resident pages across all files.
    pub fn resident_pages(&self) -> usize {
        self.resident
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_assigns_distinct_ids() {
        let mut pc = PageCache::new();
        let a = pc.register_file(1);
        let b = pc.register_file(2);
        assert_ne!(a, b);
        assert_eq!(pc.file_pages(a), 1);
        assert_eq!(pc.file_pages(b), 2);
    }

    #[test]
    fn first_touch_allocates_then_caches() {
        let mut fa = FrameAllocator::new(1, 8);
        let mut pc = PageCache::new();
        let f = pc.register_file(2);
        let p0 = pc.frame_for(f, 0, NodeId(0), &mut fa).unwrap();
        assert_eq!(fa.total_allocations(), 1);
        let again = pc.frame_for(f, 0, NodeId(0), &mut fa).unwrap();
        assert_eq!(p0, again);
        assert_eq!(fa.total_allocations(), 1);
        let p1 = pc.frame_for(f, 1, NodeId(0), &mut fa).unwrap();
        assert_ne!(p0, p1);
        assert_eq!(pc.resident_pages(), 2);
    }

    #[test]
    #[should_panic(expected = "beyond end")]
    fn out_of_bounds_page_panics() {
        let mut fa = FrameAllocator::new(1, 8);
        let mut pc = PageCache::new();
        let f = pc.register_file(1);
        let _ = pc.frame_for(f, 1, NodeId(0), &mut fa);
    }

    #[test]
    #[should_panic(expected = "unknown file")]
    fn unknown_file_panics() {
        let pc = PageCache::new();
        pc.file_pages(FileId(99));
    }

    #[test]
    fn evict_releases_frame() {
        let mut fa = FrameAllocator::new(1, 2);
        let mut pc = PageCache::new();
        let f = pc.register_file(1);
        let pfn = pc.frame_for(f, 0, NodeId(0), &mut fa).unwrap();
        assert_eq!(pc.evict(f, 0, &mut fa), Some(pfn));
        assert!(!fa.is_allocated(pfn));
        assert_eq!(pc.evict(f, 0, &mut fa), None);
    }

    #[test]
    fn exhaustion_surfaces_as_typed_error() {
        let mut fa = FrameAllocator::new(1, 1);
        let mut pc = PageCache::new();
        let f = pc.register_file(2);
        assert!(pc.frame_for(f, 0, NodeId(0), &mut fa).is_ok());
        assert_eq!(
            pc.frame_for(f, 1, NodeId(0), &mut fa),
            Err(AllocError::OutOfMemory { node: NodeId(0) })
        );
    }
}
