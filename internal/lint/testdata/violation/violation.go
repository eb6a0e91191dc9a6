// Package violation plants one lockdiscipline finding, file I/O under an
// Ensemble mutex, for TestRepoDriverReportsFindings. It lives under
// testdata so the repo scan over ./... never loads it.
package violation

import (
	"os"
	"sync"
)

type Ensemble struct{ mu sync.Mutex }

func (e *Ensemble) Load(path string) ([]byte, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return os.ReadFile(path)
}
