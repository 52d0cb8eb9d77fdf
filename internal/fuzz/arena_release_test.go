//go:build !arena_debug

package fuzz

// arenaLive is zero in release builds, which do not count arena blocks.
func arenaLive() int64 { return 0 }
