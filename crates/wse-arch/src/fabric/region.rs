//! Rectangular tile regions: the unit of multi-tenant partitioning, and
//! the extract and blit that move a program image between a region and a
//! region-sized fabric.

use super::Fabric;

/// A rectangular tile region of a fabric — the unit of multi-tenant
/// partitioning. Tenant programs are built region-relative (routing is
/// per-tile and therefore translation-invariant), so the same compiled
/// program image can be placed at any origin whose region fits the fabric.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub struct Region {
    /// Leftmost tile column.
    pub x: usize,
    /// Topmost tile row.
    pub y: usize,
    /// Width in tiles.
    pub w: usize,
    /// Height in tiles.
    pub h: usize,
}

impl Region {
    /// Creates a region; extents must be nonzero.
    ///
    /// # Panics
    /// Panics if either extent is zero.
    pub fn new(x: usize, y: usize, w: usize, h: usize) -> Region {
        assert!(w > 0 && h > 0, "region extents must be nonzero");
        Region { x, y, w, h }
    }

    /// Number of tiles in the region.
    pub fn area(&self) -> usize {
        self.w * self.h
    }

    /// `true` if absolute tile `(x, y)` lies inside the region.
    pub fn contains(&self, x: usize, y: usize) -> bool {
        x >= self.x && x < self.x + self.w && y >= self.y && y < self.y + self.h
    }

    /// `true` if the two regions share at least one tile.
    pub fn overlaps(&self, other: &Region) -> bool {
        self.x < other.x + other.w
            && other.x < self.x + self.w
            && self.y < other.y + other.h
            && other.y < self.y + self.h
    }

    /// `true` if a `w × h` program shape fits inside this region.
    pub fn fits(&self, w: usize, h: usize) -> bool {
        w <= self.w && h <= self.h
    }
}

impl std::fmt::Display for Region {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}x{}@({},{})", self.w, self.h, self.x, self.y)
    }
}

impl Fabric {
    /// Asserts `region` lies inside the fabric.
    fn check_region(&self, region: Region) {
        assert!(
            region.x + region.w <= self.w && region.y + region.h <= self.h,
            "region {region} outside {}x{} fabric",
            self.w,
            self.h
        );
    }

    /// Clones the tiles of `region` into a fresh region-sized fabric
    /// (origin shifted to `(0, 0)`).
    ///
    /// Because routing state is per-tile, the extract is exactly the
    /// program a region-sized fabric would hold — which makes it the
    /// region-scoped lint entry's input: a route that escapes the region
    /// surfaces as an off-fabric/dangling diagnostic on the extract.
    /// Declared edge channels are *not* carried over (tenant programs are
    /// required to be self-contained).
    ///
    /// # Panics
    /// Panics if the region reaches outside the fabric.
    pub fn extract_region(&self, region: Region) -> Fabric {
        self.check_region(region);
        let mut out = Fabric::new(region.w, region.h);
        for ry in 0..region.h {
            for rx in 0..region.w {
                *out.tile_mut(rx, ry) = self.tile(region.x + rx, region.y + ry).clone();
            }
        }
        out
    }

    /// Copies a region-sized `template` fabric's tiles into `region`,
    /// replacing whatever program was resident there — the warm path of
    /// the compiled-program cache. Tiles are handed out via
    /// [`Fabric::tile_mut`], so activity state and the credits of the links
    /// into and out of the region are re-derived before the next step.
    ///
    /// # Panics
    /// Panics if the region reaches outside the fabric or the template's
    /// dimensions differ from the region's.
    pub fn blit_region(&mut self, region: Region, template: &Fabric) {
        self.check_region(region);
        assert_eq!(
            (template.width(), template.height()),
            (region.w, region.h),
            "template shape does not match region {region}"
        );
        debug_assert!(template.is_quiescent(), "program template must be quiescent");
        for ry in 0..region.h {
            for rx in 0..region.w {
                *self.tile_mut(region.x + rx, region.y + ry) = template.tile(rx, ry).clone();
            }
        }
    }
}
