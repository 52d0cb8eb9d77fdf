//go:build arena_debug

package fuzz

import "plumber/internal/engine"

// arenaLive reports the engine's checked-out arena blocks, which only a
// debug build counts.
func arenaLive() int64 { return engine.LiveArenaBlocks() }
