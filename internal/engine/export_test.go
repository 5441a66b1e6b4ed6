package engine

// The scheduling constants, for the external tests that drive the
// queue through internal/engine/enginetest.
const (
	MaxDrain   = maxDrain
	LevelEvery = levelEvery
)
