// Package errx exercises the errtaxonomy matching rules: sentinel
// comparisons, concrete-type comparisons, assertions, and type switches.
package errx

import (
	"errors"
	"fmt"
	"io"
)

// OverloadError mimics the tenancy layer's structured rejection.
type OverloadError struct{ Need int }

func (e *OverloadError) Error() string { return fmt.Sprintf("overload: need %d", e.Need) }

// ErrClosed is a local sentinel.
var ErrClosed = errors.New("errx: closed")

func badSentinelEq(err error) bool {
	return err == io.EOF // want `errtaxonomy: comparison with sentinel error EOF breaks under wrapping; use errors.Is`
}

func badSentinelNeq(err error) bool {
	return err != ErrClosed // want `errtaxonomy: comparison with sentinel error ErrClosed breaks under wrapping; use errors.Is`
}

func badSentinelReversed(err error) bool {
	return io.EOF == err // want `errtaxonomy: comparison with sentinel error EOF breaks under wrapping; use errors.Is`
}

func badConcreteIdentity(err error, oe *OverloadError) bool {
	return err == oe // want `errtaxonomy: comparing error against concrete \*errx.OverloadError by identity`
}

func badAssert(err error) int {
	if oe, ok := err.(*OverloadError); ok { // want `errtaxonomy: type assertion from error to concrete \*errx.OverloadError; use errors.As`
		return oe.Need
	}
	return 0
}

func badTypeSwitch(err error) int {
	switch e := err.(type) {
	case *OverloadError: // want `errtaxonomy: type switch on error with concrete case \*errx.OverloadError; use errors.As`
		return e.Need
	case nil:
		return -1
	default:
		return 0
	}
}

func badBareTypeSwitch(err error) bool {
	switch err.(type) {
	case *OverloadError: // want `errtaxonomy: type switch on error with concrete case \*errx.OverloadError; use errors.As`
		return true
	}
	return false
}

func okIs(err error) bool { return errors.Is(err, io.EOF) || errors.Is(err, ErrClosed) }

func okAs(err error) int {
	var oe *OverloadError
	if errors.As(err, &oe) {
		return oe.Need
	}
	return 0
}

func okNilCheck(err error) bool { return err == nil || nil != err }

// okInterfaceAssert: asserting to an interface is capability probing, not
// taxonomy matching.
func okInterfaceAssert(err error) bool {
	if t, ok := err.(interface{ Timeout() bool }); ok {
		return t.Timeout()
	}
	return false
}

// okNonErrorSwitch: type switches on non-error interfaces are out of
// scope.
func okNonErrorSwitch(v any) int {
	switch v := v.(type) {
	case *OverloadError:
		return v.Need
	case int:
		return v
	}
	return 0
}
