package proc

// The external tests (package proc_test, which may import core) read
// a thread's step coverage and body-switch count through these.

// NSteps is the number of steps a call can run.
const NSteps = int(nSteps)

// Reached has bit s set once the thread has run step s.
func (t *Thread) Reached() uint32 { return t.reached }

// Resumes counts the switches into the thread's body.
func (t *Thread) Resumes() int { return t.resumes }
