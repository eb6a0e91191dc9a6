// Package stream is a fixture stand-in for the repo's internal/stream: the
// lockdiscipline analyzer matches the Adapter fold entry point by package
// and type name.
package stream

import "sync"

type Adapter struct {
	mu sync.Mutex
}

func (a *Adapter) Close() error { return nil }
