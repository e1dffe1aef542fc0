package bench

import "testing"

// TestRSSDeltaClamp pins the peak_rss_delta_bytes contract: growth is
// reported as is, and a later VmHWM read that comes out lower (it has
// been seen a few pages under an earlier read) records 0, not a
// negative delta.
func TestRSSDeltaClamp(t *testing.T) {
	for _, c := range []struct{ before, after, want int64 }{
		{100 << 20, 164 << 20, 64 << 20},
		{100 << 20, 100 << 20, 0},
		{100 << 20, 100<<20 - 73728, 0},
		{0, 0, 0},
	} {
		if got := rssDelta(c.before, c.after); got != c.want {
			t.Errorf("rssDelta(%d, %d) = %d, want %d", c.before, c.after, got, c.want)
		}
	}
}

func TestPointNames(t *testing.T) {
	if got := gridName("serve", PerfOptions{Quick: true, Parallel: 8}); got != "grid/serve/quick/p8" {
		t.Errorf("gridName = %q", got)
	}
	if got := gridName("migration+pressure", PerfOptions{Parallel: 1}); got != "grid/migration+pressure/full/p1" {
		t.Errorf("gridName = %q", got)
	}
}
