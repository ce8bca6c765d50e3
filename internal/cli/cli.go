// Package cli holds the shared error-exit convention of the pmc commands:
// a bad flag value prints the message and the flag usage and exits 2 (the
// flag package's own convention for unparseable flags); runtime failures
// — an exploration error, a campaign with violations — exit 1.
package cli

import (
	"errors"
	"flag"
	"fmt"
	"os"
)

// UsageError marks a bad flag value; Fail prints usage and exits 2 for it.
type UsageError struct{ Err error }

func (e UsageError) Error() string { return e.Err.Error() }

// Unwrap keeps errors.Is/As working through the marker.
func (e UsageError) Unwrap() error { return e.Err }

// Usagef builds a UsageError.
func Usagef(format string, args ...any) error {
	return UsageError{Err: fmt.Errorf(format, args...)}
}

// Fail reports err prefixed with the command name and exits: 2 with the
// flag usage for UsageError values, 1 otherwise.
func Fail(cmd string, err error) {
	fmt.Fprintln(os.Stderr, cmd+":", err)
	var ue UsageError
	if errors.As(err, &ue) {
		flag.Usage()
		os.Exit(2)
	}
	os.Exit(1)
}
