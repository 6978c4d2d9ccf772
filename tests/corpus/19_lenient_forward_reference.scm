;; expect-value: (2 7)
;; lenient
;; A non-valuable definition reads an earlier sibling (fine) and a
;; procedure that reads a later one (fine once it is called after the
;; definitions).  One non-valuable unit keeps every unit-cell check.
(invoke
  (unit (import) (export)
    (define b 1)
    (define a (+ b 1))
    (define late (lambda () c))
    (define c 7)
    (list a (late))))
