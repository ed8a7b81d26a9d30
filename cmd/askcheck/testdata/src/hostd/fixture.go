// Package fixture seeds a known diagnostic for the driver's determinism
// golden test: one errtaxonomy finding beside the accepted form of the same
// comparison, which must stay silent. The golden pins the finding's file,
// position, analyzer and message as the driver prints them.
package fixture

import (
	"errors"
	"io"
)

// IsEOF matches the sentinel through any wrapping: no diagnostic.
func IsEOF(err error) bool { return errors.Is(err, io.EOF) }

// AtEOF compares the sentinel by identity, which an error wrapped with %w
// fails: the one line of this file the golden lists, and it lists it by
// position — a line added or removed above this one moves the golden
// (regenerate with ASKCHECK_UPDATE_GOLDEN=1, see main_test.go).
func AtEOF(err error) bool { return err == io.EOF }
