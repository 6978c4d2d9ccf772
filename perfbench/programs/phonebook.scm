;; The paper's running example (Figures 1-6) as one untyped program.
;;
;; Four units — Database, NumberInfo, Gui, Main — linked with two
;; levels of compound:
;;
;;   * PhoneBook   = Database + NumberInfo, with `delete` hidden by
;;                   omitting it from the provides clause (Figure 5),
;;   * GuiAndMain  = Gui + Main, exporting Gui's `error`,
;;   * the outer compound links the two cyclically: the database gets
;;     its `error` handler from the Gui it serves (Figure 4).
;;
;; Running it opens the book and prints its contents:
;;
;;   $ python -m repro run examples/phonebook.scm
;;   phone book with 2 entries
;;   robby -> 5550100
;;   => #t
;;
;; It is also the demo program for the observability layer — one
;; `python -m repro --trace out.jsonl demo examples/phonebook.scm`
;; exercises checking, static linking, compilation, archive retrieval,
;; the rewriting machine, and the interpreter on this file.
(invoke
  (compound (import) (export)
    (link
      ;; PhoneBook: the database and its info abstraction.
      ((compound (import error)
                 (export new insert lookup size
                         numInfo noInfo infoNumber)
         (link
           ((unit (import error)
                  (export new insert delete lookup size)
              ;; A phone book is a boxed association list of
              ;; name/number pairs; `new` makes a fresh one, so every
              ;; client owns its own mutable book.
              (define new (lambda () (box (list))))
              (define insert (lambda (db name number)
                (set-box! db (cons (cons name number) (unbox db)))))
              (define delete (lambda (db name)
                (set-box! db (drop-entry (unbox db) name))))
              (define drop-entry (lambda (entries name)
                (if (null? entries)
                    (list)
                    (if (string=? (car (car entries)) name)
                        (drop-entry (cdr entries) name)
                        (cons (car entries)
                              (drop-entry (cdr entries) name))))))
              (define lookup (lambda (db name)
                (find-entry (unbox db) name)))
              (define find-entry (lambda (entries name)
                (if (null? entries)
                    (error name)
                    (if (string=? (car (car entries)) name)
                        (cdr (car entries))
                        (find-entry (cdr entries) name)))))
              (define size (lambda (db) (length (unbox db))))
              (void))
            (with error)
            (provides new insert lookup size))   ; `delete` stays hidden
           ((unit (import) (export numInfo noInfo infoNumber)
              (define numInfo (lambda (number) (cons "num" number)))
              (define noInfo (lambda () (cons "none" "")))
              (define infoNumber (lambda (info) (cdr info)))
              (void))
            (with)
            (provides numInfo noInfo infoNumber))))
       (with error)
       (provides new insert lookup size numInfo noInfo infoNumber))
      ;; GuiAndMain: the interface and the program that drives it.
      ((compound (import new insert lookup size
                         numInfo noInfo infoNumber)
                 (export error)
         (link
           ((unit (import lookup size numInfo noInfo infoNumber)
                  (export error openBook)
              (define error (lambda (name)
                (begin (display "no entry: ")
                       (display name)
                       (newline)
                       (infoNumber (noInfo)))))
              (define openBook (lambda (db)
                (begin (display "phone book with ")
                       (display (size db))
                       (display " entries")
                       (newline)
                       (display "robby -> ")
                       (display (infoNumber (numInfo (lookup db "robby"))))
                       (newline)
                       #t)))
              (void))
            (with lookup size numInfo noInfo infoNumber)
            (provides error openBook))
           ((unit (import new insert openBook) (export)
              (let ((db (new)))
                (begin (insert db "robby" "5550100")
                       (insert db "matthew" "5550123")
                       (openBook db))))
            (with new insert openBook)
            (provides))))
       (with new insert lookup size numInfo noInfo infoNumber)
       (provides error)))))
